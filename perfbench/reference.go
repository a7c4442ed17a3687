package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

// pair is a directed vertex pair; parallel edges share one.
type pair struct{ from, to graph.VertexID }

// mirror is the benchmark's own copy of the graph as an edge multiset,
// kept apart from the program's CSR so the output checks do not trust the
// structure they check. It follows graph.Batch semantics: a delete names
// (From, To), matches only edges present before the batch, and removes
// one parallel instance, the one with the smallest weight.
type mirror struct {
	n     int
	edges map[pair][]float64 // weights of the instances, ascending
	m     int
}

func newMirror(n int, base []graph.Edge) *mirror {
	mr := &mirror{n: n, edges: make(map[pair][]float64, len(base))}
	for _, e := range base {
		mr.insert(e)
	}
	return mr
}

func (mr *mirror) insert(e graph.Edge) {
	k := pair{e.From, e.To}
	ws := mr.edges[k]
	i := sort.SearchFloat64s(ws, e.Weight)
	ws = append(ws, 0)
	copy(ws[i+1:], ws[i:])
	ws[i] = e.Weight
	mr.edges[k] = ws
	mr.m++
	if int(e.From) >= mr.n {
		mr.n = int(e.From) + 1
	}
	if int(e.To) >= mr.n {
		mr.n = int(e.To) + 1
	}
}

// apply folds one batch in. It reports an error for a delete that
// matches no edge present before the batch: the generator never emits
// one, so such a delete means the mirror and the stream disagree.
func (mr *mirror) apply(b graph.Batch) error {
	for _, d := range b.Del {
		k := pair{d.From, d.To}
		ws := mr.edges[k]
		if len(ws) == 0 {
			return fmt.Errorf("delete %d->%d matches no edge", d.From, d.To)
		}
		if len(ws) == 1 {
			delete(mr.edges, k)
		} else {
			mr.edges[k] = ws[1:]
		}
		mr.m--
	}
	for _, e := range b.Add {
		mr.insert(e)
	}
	return nil
}

// list returns every edge instance, in no particular order.
func (mr *mirror) list() []graph.Edge {
	out := make([]graph.Edge, 0, mr.m)
	for k, ws := range mr.edges {
		for _, w := range ws {
			out = append(out, graph.Edge{From: k.from, To: k.to, Weight: w})
		}
	}
	return out
}

// referencePageRank is textbook synchronous PageRank over the mirror:
// every rank starts at 1, and each of iters rounds computes
// c(v) = (1-d) + d * sum over in-edges (u,v) of c(u)/outdeg(u), every
// parallel instance counting once in the sum and in the degree.
func referencePageRank(mr *mirror, damping float64, iters int) []float64 {
	edges := mr.list()
	deg := make([]int, mr.n)
	for _, e := range edges {
		deg[e.From]++
	}
	cur := make([]float64, mr.n)
	for v := range cur {
		cur[v] = 1
	}
	next := make([]float64, mr.n)
	for it := 0; it < iters; it++ {
		for v := range next {
			next[v] = 0
		}
		for _, e := range edges {
			next[e.To] += cur[e.From] / float64(deg[e.From])
		}
		for v := range next {
			next[v] = (1 - damping) + damping*next[v]
		}
		cur, next = next, cur
	}
	return cur
}

// referenceSSSP is hop-bounded Bellman-Ford over the mirror with the
// engine's BSP layering: d0 is 0 at the source and +Inf elsewhere, and
// each of rounds rounds computes d(v) = min(init(v), min over in-edges
// (u,v) of d(u)+w). After r rounds d(v) is the shortest distance over
// paths of at most r edges.
func referenceSSSP(mr *mirror, source graph.VertexID, rounds int) []float64 {
	edges := mr.list()
	init := func(v int) float64 {
		if v == int(source) {
			return 0
		}
		return math.Inf(1)
	}
	cur := make([]float64, mr.n)
	for v := range cur {
		cur[v] = init(v)
	}
	next := make([]float64, mr.n)
	for r := 0; r < rounds; r++ {
		for v := range next {
			next[v] = init(v)
		}
		for _, e := range edges {
			if d := cur[e.From] + e.Weight; d < next[e.To] {
				next[e.To] = d
			}
		}
		cur, next = next, cur
	}
	return cur
}

// referenceSSSPPartitioned is referenceSSSP as a sharded server
// computes it when edges cross partitions: each shard runs hop-bounded
// Bellman-Ford over only the edges it owns (those into its vertices),
// every vertex it does not own keeping its initial value there, and a
// vertex's published distance is its owner's.
func referenceSSSPPartitioned(mr *mirror, source graph.VertexID, rounds, shards int, owner func(graph.VertexID) int) []float64 {
	parts := make([][]graph.Edge, shards)
	for _, e := range mr.list() {
		s := owner(e.To)
		parts[s] = append(parts[s], e)
	}
	out := make([]float64, mr.n)
	for s, edges := range parts {
		local := referenceSSSP(newMirror(mr.n, edges), source, rounds)
		for v := range out {
			if owner(graph.VertexID(v)) == s {
				out[v] = local[v]
			}
		}
	}
	return out
}

// compareRelative checks got against want vertex by vertex within a
// relative tolerance (absolute below magnitude 1). It names the first
// vertex outside it.
func compareRelative(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, reference has %d", len(got), len(want))
	}
	for v := range want {
		scale := math.Max(1, math.Abs(want[v]))
		if !(math.Abs(got[v]-want[v]) <= tol*scale) {
			return fmt.Errorf("vertex %d: got %v, reference %v (relative tolerance %g)", v, got[v], want[v], tol)
		}
	}
	return nil
}

// compareExact checks got against want bit for bit: +Inf equals +Inf,
// and +0 differs from -0.
func compareExact(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, reference has %d", len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			return fmt.Errorf("vertex %d: got %v, reference %v", v, got[v], want[v])
		}
	}
	return nil
}
