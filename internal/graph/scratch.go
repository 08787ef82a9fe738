package graph

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// DefaultParallelCutoff is the node count at or above which the per-source
// fan-out passes (Brandes betweenness and closeness) run on a worker pool.
// Below it the goroutine hand-off costs more than the BFS work it hides.
const DefaultParallelCutoff = 64

// Scratch is a reusable workspace for the graph analytics passes: the
// simple-projection adjacency, BFS queues and distance arrays, Brandes
// dependency buffers, and core-number bucket arrays all live here and are
// reused across calls, so repeated analysis of a growing graph reaches a
// zero-allocation steady state (verified by the package benchmarks with
// ReportAllocs). A Scratch may be moved between graphs; projections are
// keyed on the graph identity and its mutation version and rebuilt only
// when stale.
//
// Convention (enforced by the dynalint scratchsafe analyzer): functions
// that take a *Scratch parameter treat it as temporaries only — they must
// not return the scratch's slices or store them in struct fields. Results
// go into caller-owned dst buffers.
//
// A Scratch is not safe for concurrent use; the parallel fan-out it runs
// internally is contained within each call.
type Scratch struct {
	// ParallelCutoff overrides DefaultParallelCutoff when positive;
	// negative disables the parallel fan-out entirely. Zero selects the
	// default.
	ParallelCutoff int
	// Workers is the fan-out pool size; zero selects GOMAXPROCS. The
	// numeric results do not depend on it (see parallelChunk).
	Workers int

	// Cached undirected/directed simple projections, keyed by graph
	// identity and version.
	undG   *Digraph
	undV   uint64
	und    [][]int
	dirG   *Digraph
	dirV   uint64
	dir    [][]int
	pairs  []uint64
	arenaU []int
	arenaD []int
	deg    []int

	// Single-pass temporaries.
	ws0    passWS
	dist2  []int
	fsum   []float64
	fcnt   []int
	marks  []bool
	marks2 []bool
	bins   []int
	pos    []int
	vert   []int
	next   []float64

	// Max-flow workspace for NodeConnectivityS.
	flow flowWS

	// Parallel fan-out state.
	pool []*passWS
	accs [][]float64
}

// passWS holds the per-source temporaries one worker needs for a BFS or
// Brandes pass.
type passWS struct {
	dist  []int
	queue []int
	stack []int
	order []int
	sigma []float64
	delta []float64
	load  []float64
	preds [][]int
	pbuf  []int
}

// NewScratch returns an empty workspace.
func NewScratch() *Scratch { return &Scratch{} }

//dynalint:hotpath
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

//dynalint:hotpath
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func zeroFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// size ensures the per-source temporaries cover n nodes.
func (w *passWS) size(n int) {
	w.dist = growInts(w.dist, n)
	w.sigma = growFloats(w.sigma, n)
	w.delta = growFloats(w.delta, n)
	w.load = growFloats(w.load, n)
	if cap(w.queue) < n {
		w.queue = make([]int, 0, n)
	}
	if cap(w.stack) < n {
		w.stack = make([]int, 0, n)
	}
	if cap(w.order) < n {
		w.order = make([]int, 0, n)
	}
	if cap(w.preds) < n {
		preds := make([][]int, n)
		copy(preds, w.preds)
		w.preds = preds
	}
	w.preds = w.preds[:n]
}

// undirected returns the cached undirected simple projection of g,
// rebuilding it (into reused storage) when the graph mutated. Adjacency
// lists are sorted ascending, matching Digraph.undirectedSimple.
//
//dynalint:hotpath
func (s *Scratch) undirected(g *Digraph) [][]int {
	if s.undG == g && s.undV == g.version {
		return s.und
	}
	n := len(g.out)
	s.pairs = s.pairs[:0]
	for u, vs := range g.out {
		for _, v := range vs {
			if u == v {
				continue
			}
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			s.pairs = append(s.pairs, uint64(a)<<32|uint64(b))
		}
	}
	slices.Sort(s.pairs)
	s.pairs = slices.Compact(s.pairs)
	s.deg = growInts(s.deg, n)
	for i := range s.deg {
		s.deg[i] = 0
	}
	for _, p := range s.pairs {
		s.deg[int(p>>32)]++
		s.deg[int(p&0xffffffff)]++
	}
	s.arenaU = growInts(s.arenaU, 2*len(s.pairs))
	if cap(s.und) < n {
		s.und = make([][]int, n)
	}
	s.und = s.und[:n]
	off := 0
	for u := 0; u < n; u++ {
		s.und[u] = s.arenaU[off : off : off+s.deg[u]]
		off += s.deg[u]
	}
	// Pairs are sorted by (min,max), so each node receives its smaller
	// neighbors (ascending) before its larger ones (ascending): the lists
	// come out sorted without a per-node sort.
	for _, p := range s.pairs {
		a, b := int(p>>32), int(p&0xffffffff)
		s.und[a] = append(s.und[a], b)
		s.und[b] = append(s.und[b], a)
	}
	s.undG, s.undV = g, g.version
	return s.und
}

// directed returns the cached directed simple projection (distinct
// successors, self-loops removed, sorted ascending).
//
//dynalint:hotpath
func (s *Scratch) directed(g *Digraph) [][]int {
	if s.dirG == g && s.dirV == g.version {
		return s.dir
	}
	n := len(g.out)
	s.pairs = s.pairs[:0]
	for u, vs := range g.out {
		for _, v := range vs {
			if u != v {
				s.pairs = append(s.pairs, uint64(u)<<32|uint64(v))
			}
		}
	}
	slices.Sort(s.pairs)
	s.pairs = slices.Compact(s.pairs)
	s.deg = growInts(s.deg, n)
	for i := range s.deg {
		s.deg[i] = 0
	}
	for _, p := range s.pairs {
		s.deg[int(p>>32)]++
	}
	s.arenaD = growInts(s.arenaD, len(s.pairs))
	if cap(s.dir) < n {
		s.dir = make([][]int, n)
	}
	s.dir = s.dir[:n]
	off := 0
	for u := 0; u < n; u++ {
		s.dir[u] = s.arenaD[off : off : off+s.deg[u]]
		off += s.deg[u]
	}
	for _, p := range s.pairs {
		s.dir[int(p>>32)] = append(s.dir[int(p>>32)], int(p&0xffffffff))
	}
	s.dirG, s.dirV = g, g.version
	return s.dir
}

// bfsInto fills dist with BFS distances from src (-1 unreachable), reusing
// queue as the frontier. It returns the queue in visit order.
//
//dynalint:hotpath
func bfsInto(adj [][]int, src int, dist []int, queue []int) []int {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = queue[:0]
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// workers resolves the fan-out pool size.
func (s *Scratch) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// parallel reports whether an n-node per-source pass should fan out.
func (s *Scratch) parallel(n int) bool {
	cutoff := s.ParallelCutoff
	if cutoff == 0 {
		cutoff = DefaultParallelCutoff
	}
	return cutoff > 0 && n >= cutoff && s.workers() > 1
}

// ensurePool grows the worker workspace pool to nw entries sized for n.
func (s *Scratch) ensurePool(nw, n int) {
	for len(s.pool) < nw {
		s.pool = append(s.pool, &passWS{})
	}
	for i := 0; i < nw; i++ {
		s.pool[i].size(n)
	}
}

// fanOutIndependent runs source(src, ws) for every src in [0,n) on the
// worker pool. Sources must be mutually independent (each writes only its
// own output slots), which makes the result trivially bit-identical to a
// sequential pass.
func (s *Scratch) fanOutIndependent(n int, source func(src int, ws *passWS)) {
	nw := s.workers()
	if nw > n {
		nw = n
	}
	s.ensurePool(nw, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		ws := s.pool[i]
		wg.Add(1)
		go func(ws *passWS) {
			defer wg.Done()
			for {
				src := int(next.Add(1)) - 1
				if src >= n {
					return
				}
				source(src, ws)
			}
		}(ws)
	}
	wg.Wait()
}

// fanOutOrdered runs source(src, ws, buf) for every src in [0,n), where
// each source deposits its whole contribution vector into a private buffer
// (zeroed before the call, at most one addition per slot). Sources are
// processed in rounds; after each round merge(buf) is invoked in ascending
// source order. Because every source's vector is added to the caller's
// accumulator exactly where the sequential loop would add it, the result is
// bit-identical to the sequential pass for any worker count.
func (s *Scratch) fanOutOrdered(n int, source func(src int, ws *passWS, buf []float64), merge func(buf []float64)) {
	nw := s.workers()
	round := 2 * nw // sources in flight per round
	if round > n {
		round = n
	}
	for len(s.accs) < round {
		s.accs = append(s.accs, nil)
	}
	for i := 0; i < round; i++ {
		s.accs[i] = growFloats(s.accs[i], n)
	}
	s.ensurePool(nw, n)
	for base := 0; base < n; base += round {
		hi := base + round
		if hi > n {
			hi = n
		}
		var next atomic.Int64
		next.Store(int64(base))
		var wg sync.WaitGroup
		for i := 0; i < nw; i++ {
			ws := s.pool[i]
			wg.Add(1)
			go func(ws *passWS) {
				defer wg.Done()
				for {
					src := int(next.Add(1)) - 1
					if src >= hi {
						return
					}
					buf := s.accs[src-base]
					zeroFloats(buf)
					source(src, ws, buf)
				}
			}(ws)
		}
		wg.Wait()
		for src := base; src < hi; src++ {
			merge(s.accs[src-base])
		}
	}
}

// DiameterS is the longest shortest-path distance between any pair of
// nodes in the undirected simple projection. For disconnected graphs it is
// the maximum eccentricity over reachable pairs (the diameter of the
// largest component by eccentricity), so it stays finite and comparable
// between WCGs, which are frequently weakly connected but occasionally
// fragmented.
//
//dynalint:hotpath
func (g *Digraph) DiameterS(s *Scratch) int {
	adj := s.undirected(g)
	s.ws0.size(len(adj))
	best := 0
	for src := range adj {
		s.ws0.queue = bfsInto(adj, src, s.ws0.dist, s.ws0.queue)
		for _, d := range s.ws0.dist {
			if d > best {
				best = d
			}
		}
	}
	return best
}

// DegreeCentralityInto writes, for every node, its undirected simple
// degree normalized by n-1 (the NetworkX convention) into dst (resized as
// needed) and returns it. For graphs with fewer than two nodes all values
// are zero.
//
//dynalint:hotpath
func (g *Digraph) DegreeCentralityInto(dst []float64, s *Scratch) []float64 {
	adj := s.undirected(g)
	n := len(adj)
	dst = growFloats(dst, n)
	zeroFloats(dst)
	if n < 2 {
		return dst
	}
	norm := 1 / float64(n-1)
	for u := range adj {
		dst[u] = float64(len(adj[u])) * norm
	}
	return dst
}

// ClosenessCentralityInto writes the improved (Wasserman–Faust) closeness
// of every node on the undirected simple projection into dst and returns
// it:
//
//	C(u) = ((r-1)/(n-1)) * ((r-1)/Σ d(u,v))
//
// where r is the number of nodes reachable from u. Isolated nodes score 0.
// Each node's value is independent of the others, so the parallel fan-out
// is bit-identical to the sequential pass.
//
//dynalint:hotpath
func (g *Digraph) ClosenessCentralityInto(dst []float64, s *Scratch) []float64 {
	adj := s.undirected(g)
	n := len(adj)
	dst = growFloats(dst, n)
	zeroFloats(dst)
	if n < 2 {
		return dst
	}
	if s.parallel(n) {
		//dynalint:ignore hotalloc the fan-out closure is allocated once per call and amortized over >= cutoff sources
		s.fanOutIndependent(n, func(u int, ws *passWS) {
			closenessSource(adj, u, ws, dst)
		})
		return dst
	}
	s.ws0.size(n)
	for u := range adj {
		closenessSource(adj, u, &s.ws0, dst)
	}
	return dst
}

// closenessSource computes one node's Wasserman–Faust closeness and writes
// it to dst[u]; no other slot is touched, so concurrent sources are safe.
//
//dynalint:hotpath
func closenessSource(adj [][]int, u int, ws *passWS, dst []float64) {
	n := len(adj)
	ws.queue = bfsInto(adj, u, ws.dist, ws.queue)
	sum, reach := 0, 0
	for _, d := range ws.dist {
		if d > 0 {
			sum += d
			reach++
		}
	}
	if sum > 0 {
		frac := float64(reach) / float64(n-1)
		dst[u] = frac * float64(reach) / float64(sum)
	}
}

// brandesSource runs one Brandes accumulation from src, adding each node's
// dependency into acc (the source itself excluded).
//
//dynalint:hotpath
func brandesSource(adj [][]int, src int, ws *passWS, acc []float64) {
	n := len(adj)
	ws.stack = ws.stack[:0]
	ws.queue = ws.queue[:0]
	for i := 0; i < n; i++ {
		ws.sigma[i] = 0
		ws.dist[i] = -1
		ws.delta[i] = 0
		ws.preds[i] = ws.preds[i][:0]
	}
	ws.sigma[src] = 1
	ws.dist[src] = 0
	ws.queue = append(ws.queue, src)
	for head := 0; head < len(ws.queue); head++ {
		v := ws.queue[head]
		ws.stack = append(ws.stack, v)
		for _, w := range adj[v] {
			if ws.dist[w] < 0 {
				ws.dist[w] = ws.dist[v] + 1
				ws.queue = append(ws.queue, w)
			}
			if ws.dist[w] == ws.dist[v]+1 {
				ws.sigma[w] += ws.sigma[v]
				ws.preds[w] = append(ws.preds[w], v)
			}
		}
	}
	for i := len(ws.stack) - 1; i >= 0; i-- {
		w := ws.stack[i]
		for _, v := range ws.preds[w] {
			ws.delta[v] += ws.sigma[v] / ws.sigma[w] * (1 + ws.delta[w])
		}
		if w != src {
			acc[w] += ws.delta[w]
		}
	}
}

// BetweennessCentralityInto writes exact shortest-path betweenness on the
// undirected simple projection into dst and returns it: Brandes'
// algorithm, normalized by 2/((n-1)(n-2)) so values are comparable across
// graph sizes. The per-source passes fan out over the worker pool for
// graphs at or above the parallel cutoff.
//
//dynalint:hotpath
func (g *Digraph) BetweennessCentralityInto(dst []float64, s *Scratch) []float64 {
	adj := s.undirected(g)
	n := len(adj)
	dst = growFloats(dst, n)
	zeroFloats(dst)
	if n < 3 {
		return dst
	}
	if s.parallel(n) {
		// Each source adds at most once into each slot of its private
		// buffer, so the ordered merge reproduces the sequential
		// summation exactly.
		//dynalint:ignore hotalloc the fan-out closures are allocated once per call and amortized over >= cutoff sources
		s.fanOutOrdered(n,
			func(src int, ws *passWS, buf []float64) { brandesSource(adj, src, ws, buf) },
			func(buf []float64) {
				for i, v := range buf {
					dst[i] += v
				}
			})
	} else {
		s.ws0.size(n)
		for src := 0; src < n; src++ {
			brandesSource(adj, src, &s.ws0, dst)
		}
	}
	norm := 1 / (float64(n-1) * float64(n-2))
	for i := range dst {
		dst[i] *= norm
	}
	return dst
}

// loadSource routes one unit of commodity from src to every reachable node
// along shortest paths (Goh load), accumulating the transit load into acc.
//
//dynalint:hotpath
func loadSource(adj [][]int, src int, ws *passWS, acc []float64) {
	ws.queue = bfsInto(adj, src, ws.dist, ws.queue)
	dist := ws.dist
	ws.order = ws.order[:0]
	for v, d := range dist {
		if d > 0 {
			ws.order = append(ws.order, v)
		}
	}
	order := ws.order
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && dist[order[j]] > dist[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for v := range ws.load {
		ws.load[v] = 0
	}
	for _, v := range order {
		ws.load[v] = 1 // each node must receive one unit from src
	}
	for _, w := range order {
		ws.pbuf = ws.pbuf[:0]
		for _, v := range adj[w] {
			if dist[v] >= 0 && dist[v] == dist[w]-1 {
				ws.pbuf = append(ws.pbuf, v)
			}
		}
		if len(ws.pbuf) == 0 {
			continue
		}
		share := ws.load[w] / float64(len(ws.pbuf))
		for _, v := range ws.pbuf {
			if v != src {
				acc[v] += share
			}
			ws.load[v] += share
		}
	}
}

// LoadCentralityInto writes Goh-style load centrality on the undirected
// simple projection into dst and returns it: a unit commodity is routed
// from every source to every other node along shortest paths, splitting
// equally among the predecessors at each branch, and each node accumulates
// the load passing through it. Values are normalized by 2/((n-1)(n-2)) to
// match NetworkX. Load stays sequential even above the cutoff: a source
// adds to the same accumulator slot many times during one pass, so a
// buffered parallel merge could not reproduce the sequential summation
// order bit-for-bit — and bit-identity with the reference implementation
// is the contract here.
//
//dynalint:hotpath
func (g *Digraph) LoadCentralityInto(dst []float64, s *Scratch) []float64 {
	adj := s.undirected(g)
	n := len(adj)
	dst = growFloats(dst, n)
	zeroFloats(dst)
	if n < 3 {
		return dst
	}
	s.ws0.size(n)
	for src := 0; src < n; src++ {
		loadSource(adj, src, &s.ws0, dst)
	}
	norm := 1 / (float64(n-1) * float64(n-2))
	for i := range dst {
		dst[i] *= norm
	}
	return dst
}

// NodeConnectivityS is the minimum number of nodes whose removal
// disconnects the undirected simple projection (or isolates a node),
// computed exactly via vertex-split max-flow between a fixed
// minimum-degree source and every non-neighbor, plus neighbor-of-source
// pairs — the standard exact algorithm. It returns 0 for disconnected
// graphs and n-1 for complete graphs. The scratch supplies the projection,
// the BFS buffers for the connectivity pre-check, and the max-flow
// workspace for the inner Dinic runs, so a warm scratch computes
// connectivity without allocating.
//
//dynalint:hotpath
func (g *Digraph) NodeConnectivityS(s *Scratch) int {
	adj := s.undirected(g)
	n := len(adj)
	if n < 2 {
		return 0
	}
	s.ws0.size(n)
	s.ws0.queue = bfsInto(adj, 0, s.ws0.dist, s.ws0.queue)
	for _, d := range s.ws0.dist {
		if d < 0 {
			return 0 // disconnected
		}
	}
	complete := true
	for u := range adj {
		if len(adj[u]) != n-1 {
			complete = false
			break
		}
	}
	if complete {
		return n - 1
	}
	st := 0
	for u := range adj {
		if len(adj[u]) < len(adj[st]) {
			st = u
		}
	}
	best := n
	s.marks = growBools(s.marks, n)
	for i := range s.marks {
		s.marks[i] = false
	}
	for _, v := range adj[st] {
		s.marks[v] = true
	}
	for t := 0; t < n; t++ {
		if t == st || s.marks[t] {
			continue
		}
		if k := localNodeConnectivityS(adj, st, t, &s.flow); k < best {
			best = k
		}
	}
	s.marks2 = growBools(s.marks2, n)
	for i := range s.marks2 {
		s.marks2[i] = false
	}
	for _, v := range adj[st] {
		for _, w := range adj[v] {
			s.marks2[w] = true
		}
		for t := 0; t < n; t++ {
			if t == v || t == st || s.marks2[t] {
				continue
			}
			if k := localNodeConnectivityS(adj, v, t, &s.flow); k < best {
				best = k
			}
		}
		for _, w := range adj[v] {
			s.marks2[w] = false
		}
	}
	if best == n {
		best = n - 1
	}
	return best
}

//dynalint:hotpath
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// AvgClusteringCoefficientS is the mean local clustering coefficient (f21)
// on the undirected simple projection: per node, the fraction of pairs of
// its neighbors that are themselves adjacent (nodes with degree < 2 score
// zero), accumulated in node order.
//
//dynalint:hotpath
func (g *Digraph) AvgClusteringCoefficientS(s *Scratch) float64 {
	adj := s.undirected(g)
	n := len(adj)
	if n == 0 {
		return 0
	}
	s.marks = growBools(s.marks, n)
	for i := range s.marks {
		s.marks[i] = false
	}
	sum := 0.0
	for u := range adj {
		k := len(adj[u])
		if k < 2 {
			continue
		}
		for _, v := range adj[u] {
			s.marks[v] = true
		}
		links := 0
		for _, v := range adj[u] {
			for _, w := range adj[v] {
				if w > v && s.marks[w] {
					links++
				}
			}
		}
		for _, v := range adj[u] {
			s.marks[v] = false
		}
		sum += 2 * float64(links) / (float64(k) * float64(k-1))
	}
	return sum / float64(n)
}

// AvgNeighborDegreesInto writes, for each node, the mean undirected simple
// degree of its neighbors (f22) into dst and returns it. Isolated nodes
// score zero.
//
//dynalint:hotpath
func (g *Digraph) AvgNeighborDegreesInto(dst []float64, s *Scratch) []float64 {
	adj := s.undirected(g)
	dst = growFloats(dst, len(adj))
	zeroFloats(dst)
	for u := range adj {
		if len(adj[u]) == 0 {
			continue
		}
		sum := 0
		for _, v := range adj[u] {
			sum += len(adj[v])
		}
		dst[u] = float64(sum) / float64(len(adj[u]))
	}
	return dst
}

// AvgDegreeConnectivityS is "average degree for connected nodes" (f23) as
// a single feature: the NetworkX average degree connectivity on the
// undirected simple projection (for each degree k, the mean neighbor
// degree over nodes of degree k), averaged over the degrees present.
// Per-degree sums live in slice buckets and combine in ascending-degree
// order, so the low bits are deterministic.
//
//dynalint:hotpath
func (g *Digraph) AvgDegreeConnectivityS(s *Scratch) float64 {
	adj := s.undirected(g)
	maxDeg := 0
	for u := range adj {
		if len(adj[u]) > maxDeg {
			maxDeg = len(adj[u])
		}
	}
	s.fsum = growFloats(s.fsum, maxDeg+1)
	zeroFloats(s.fsum)
	s.fcnt = growInts(s.fcnt, maxDeg+1)
	for i := range s.fcnt {
		s.fcnt[i] = 0
	}
	for u := range adj {
		k := len(adj[u])
		if k == 0 {
			continue
		}
		sum := 0
		for _, v := range adj[u] {
			sum += len(adj[v])
		}
		s.fsum[k] += float64(sum) / float64(k)
		s.fcnt[k]++
	}
	degrees := 0
	total := 0.0
	for k := 1; k <= maxDeg; k++ {
		if s.fcnt[k] == 0 {
			continue
		}
		total += s.fsum[k] / float64(s.fcnt[k])
		degrees++
	}
	if degrees == 0 {
		return 0
	}
	return total / float64(degrees)
}

// AvgNodesWithinKS is the mean, over all nodes, of the number of other
// nodes whose undirected shortest-path distance is at most k; zero for the
// empty graph. This backs feature f24 (Avg-K-Nearest-Neighbors): "average
// number of nodes at k-nodes distance from each node".
//
//dynalint:hotpath
func (g *Digraph) AvgNodesWithinKS(k int, s *Scratch) float64 {
	adj := s.undirected(g)
	n := len(adj)
	if n == 0 {
		return 0
	}
	s.ws0.size(n)
	sum := 0
	for src := range adj {
		s.ws0.queue = bfsInto(adj, src, s.ws0.dist, s.ws0.queue)
		for v, d := range s.ws0.dist {
			if v != src && d > 0 && d <= k {
				sum++
			}
		}
	}
	return float64(sum) / float64(n)
}

// PageRankInto writes PageRank with damping factor d over the directed
// simple projection into dst and returns it: power iteration for up to
// iters rounds, stopping early when the L1 change drops below tol, with
// dangling mass redistributed uniformly. The scratch holds the projection
// and the iteration vectors. The empty graph yields dst[:0].
//
//dynalint:hotpath
func (g *Digraph) PageRankInto(dst []float64, s *Scratch, d float64, iters int, tol float64) []float64 {
	adj := s.directed(g)
	n := len(adj)
	if n == 0 {
		return dst[:0]
	}
	dst = growFloats(dst, n)
	s.next = growFloats(s.next, n)
	rank, next := dst, s.next
	inv := 1 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	swapped := false
	for it := 0; it < iters; it++ {
		dangling := 0.0
		for u := range adj {
			if len(adj[u]) == 0 {
				dangling += rank[u]
			}
		}
		base := (1-d)*inv + d*dangling*inv
		for i := range next {
			next[i] = base
		}
		for u, vs := range adj {
			if len(vs) == 0 {
				continue
			}
			share := d * rank[u] / float64(len(vs))
			for _, v := range vs {
				next[v] += share
			}
		}
		diff := 0.0
		for i := range rank {
			delta := next[i] - rank[i]
			if delta < 0 {
				delta = -delta
			}
			diff += delta
		}
		rank, next = next, rank
		swapped = !swapped
		if diff < tol {
			break
		}
	}
	if swapped {
		// The final ranks landed in the scratch buffer; copy them into
		// the caller-owned dst (scratch slices must not escape).
		copy(dst, rank)
	}
	return dst
}

// CoreNumbersInto writes the k-core number of every node in the undirected
// simple projection into dst and returns it: the largest k such that the
// node belongs to a subgraph where every node has degree >= k
// (Batagelj-Zaveršnik peeling).
//
//dynalint:hotpath
func (g *Digraph) CoreNumbersInto(dst []int, s *Scratch) []int {
	adj := s.undirected(g)
	n := len(adj)
	dst = growInts(dst, n)
	s.dist2 = growInts(s.dist2, n) // degree array
	deg := s.dist2
	maxDeg := 0
	for u := range adj {
		deg[u] = len(adj[u])
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
	}
	s.bins = growInts(s.bins, maxDeg+2)
	bins := s.bins
	for i := range bins {
		bins[i] = 0
	}
	for _, d := range deg[:n] {
		bins[d]++
	}
	startIdx := 0
	for d := 0; d <= maxDeg; d++ {
		count := bins[d]
		bins[d] = startIdx
		startIdx += count
	}
	s.pos = growInts(s.pos, n)
	s.vert = growInts(s.vert, n)
	pos, vert := s.pos, s.vert
	for u := 0; u < n; u++ {
		pos[u] = bins[deg[u]]
		vert[pos[u]] = u
		bins[deg[u]]++
	}
	for d := maxDeg; d > 0; d-- {
		bins[d] = bins[d-1]
	}
	bins[0] = 0
	core := dst
	copy(core, deg[:n])
	for i := 0; i < n; i++ {
		v := vert[i]
		for _, u := range adj[v] {
			if core[u] > core[v] {
				du := core[u]
				pu := pos[u]
				pw := bins[du]
				w := vert[pw]
				if u != w {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, u
				}
				bins[du]++
				core[u]--
			}
		}
	}
	return core
}
