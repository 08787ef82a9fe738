package wcg

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestSniffBodyRedirectsAllocs pins the common case, a body with markup
// and script but no redirect construct and nothing to decode, at zero
// allocations: the body is scanned in place.
func TestSniffBodyRedirectsAllocs(t *testing.T) {
	var sb strings.Builder
	for i := 0; sb.Len() < 16<<10; i++ {
		fmt.Fprintf(&sb, "<meta charset=\"utf-8\"><div class=\"card-%d\"><a href=\"/news/%d.html\">news</a>"+
			"<iframe width=1 height=1 title=\"promo\"></iframe>\n"+
			"<script>var el%d = document.getElementById(\"panel\"); window.addEventListener(\"load\", init);</script>\n", i, i, i)
	}
	body := []byte(sb.String())
	if got := SniffBodyRedirects(body); got != nil {
		t.Fatalf("sniffed %q from a body without redirects", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { SniffBodyRedirects(body) }); allocs != 0 {
		t.Fatalf("SniffBodyRedirects: %v allocs/op on a %d-byte body, want 0", allocs, len(body))
	}
}

var benchWords = []string{"news", "search", "video", "login", "store", "menu", "banner", "article", "profile", "panel"}

// benchScript is one seeded line of page script; one line in five carries
// a String.fromCharCode call for the decoder to expand.
func benchScript(rng *rand.Rand) string {
	w, k := benchWords[rng.Intn(len(benchWords))], rng.Intn(100)
	switch rng.Intn(5) {
	case 0:
		return fmt.Sprintf("var %s%d = document.getElementById(%q);", w, k, w)
	case 1:
		return fmt.Sprintf("function %s%d(a, b) { if (a < b) { return b - a; } return a * %d; }", w, k, k)
	case 2:
		return fmt.Sprintf("window.addEventListener(\"load\", function() { %s.init({ n: %d }); });", w, k)
	case 3:
		return fmt.Sprintf("for (var i = 0; i < %d; i++) { %s.push(\"%s\" + i); }", k, w, w)
	default:
		return fmt.Sprintf("var s%d = String.fromCharCode(%d,%d);", k, 97+rng.Intn(26), 97+rng.Intn(26))
	}
}

// benchDocuments returns a seeded HTML page and a seeded script of about
// n bytes each.
func benchDocuments(n int, rng *rand.Rand) (html, script []byte) {
	var h, s strings.Builder
	h.WriteString("<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>bench</title></head><body>\n")
	for h.Len() < n {
		w := benchWords[rng.Intn(len(benchWords))]
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&h, "<div class=\"%s-%d\"><p>%s %s.</p></div>\n", w, rng.Intn(1000), w, w)
		case 1:
			fmt.Fprintf(&h, "<a href=\"/%s/%d.html?page=%d\" title=\"%s\">%s</a>\n", w, rng.Intn(500), rng.Intn(50), w, w)
		case 2:
			fmt.Fprintf(&h, "<img src=\"/img/%s%d.png\" alt=\"%s\" width=\"%d\">\n", w, rng.Intn(500), w, 16+rng.Intn(600))
		default:
			fmt.Fprintf(&h, "<script type=\"text/javascript\">%s</script>\n", benchScript(rng))
		}
	}
	s.WriteString("(function(){\"use strict\";\n")
	for s.Len() < n {
		s.WriteString(benchScript(rng))
		s.WriteByte('\n')
	}
	return []byte(h.String()), []byte(s.String())
}

var sniffSink []string

// BenchmarkSniffBodyRedirects sniffs seeded HTML and script documents of
// the sizes captures carry.
func BenchmarkSniffBodyRedirects(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10} {
		html, script := benchDocuments(size, rand.New(rand.NewSource(1)))
		for _, doc := range []struct {
			kind string
			body []byte
		}{{"html", html}, {"js", script}} {
			b.Run(fmt.Sprintf("%s-%dKB", doc.kind, size>>10), func(b *testing.B) {
				b.SetBytes(int64(len(doc.body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sniffSink = SniffBodyRedirects(doc.body)
				}
			})
		}
	}
}
