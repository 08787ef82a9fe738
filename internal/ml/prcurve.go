package ml

import (
	"sort"
)

// PRPoint is one operating point on a precision-recall curve.
type PRPoint struct {
	Threshold float64
	Recall    float64
	Precision float64
}

// PRCurve computes the precision-recall curve for infection scores against
// true labels, from the strictest threshold to the loosest.
func PRCurve(scores []float64, y []int) []PRPoint {
	type sy struct {
		s float64
		y int
	}
	pairs := make([]sy, len(scores))
	pos := 0
	for i := range scores {
		pairs[i] = sy{scores[i], y[i]}
		if y[i] == LabelInfection {
			pos++
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].s > pairs[j].s })

	var curve []PRPoint
	tp, fp := 0, 0
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].s == pairs[i].s {
			if pairs[j].y == LabelInfection {
				tp++
			} else {
				fp++
			}
			j++
		}
		curve = append(curve, PRPoint{
			Threshold: pairs[i].s,
			Recall:    ratio(tp, pos),
			Precision: ratio(tp, tp+fp),
		})
		i = j
	}
	return curve
}

// AveragePrecision summarizes a PR curve as the step-interpolated area:
// Σ (R_i - R_{i-1}) * P_i.
func AveragePrecision(curve []PRPoint) float64 {
	area := 0.0
	prevRecall := 0.0
	for _, p := range curve {
		area += (p.Recall - prevRecall) * p.Precision
		prevRecall = p.Recall
	}
	return area
}
