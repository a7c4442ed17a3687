package core

import (
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Propagation is owner-computes (the vertex-centric pull side of the
// Besta et al. push/pull split): instead of sources scattering into
// their out-neighbors' aggregates under locks, every target is folded by
// the worker owning its 64-vertex word, walking its CSC in-neighbors in
// order. Each aggregate then has one writer, bitset words are written
// with plain stores, and every float is summed in an order fixed by the
// graph alone — so values are bit-identical at any GOMAXPROCS.

// ownedWords runs body once for every 64-vertex word of [0, n), in
// parallel. The call for word wi owns vertices wi*64 .. wi*64+63 and
// word wi of every bitset sized n.
func ownedWords(n int, body func(worker, wi int)) {
	parallel.ForWorker((n+63)/64, 4, func(worker, s, t int) {
		for wi := s; wi < t; wi++ {
			body(worker, wi)
		}
	})
}

// gatherTargets picks the targets a gather from sources must visit,
// with Ligra's direction switch: nil (scan every vertex) when the
// sources' out-degree sum exceeds |E|/20, otherwise the set of their
// out-neighbors.
func gatherTargets(g *graph.Graph, sources []VertexID) *bitset.Bitset {
	var deg int64
	for _, u := range sources {
		deg += int64(g.OutDegree(u))
	}
	if deg*20 > g.NumEdges() {
		return nil
	}
	targets := bitset.New(g.NumVertices())
	parallel.ForRange(len(sources), 16, func(s, t int) {
		for _, u := range sources[s:t] {
			ts, _ := g.OutNeighbors(u)
			for _, v := range ts {
				targets.Set(v)
			}
		}
	})
	return targets
}

// gather calls fold(t, fresh) for every candidate target — each member
// of targets or touched, or every vertex when targets is nil — on the
// worker owning t. fresh reports that t is not yet in touched. fold
// returns the edge computations it performed; a target with any joins
// touched. gather returns their total.
func gather(targets, touched *bitset.Bitset, fold func(t VertexID, fresh bool) int64) int64 {
	work := parallel.NewCounter()
	tw := touched.Words()
	ownedWords(touched.Len(), func(worker, wi int) {
		word := tw[wi]
		cand := touched.WordMask(wi)
		if targets != nil {
			cand &= targets.Words()[wi] | word
		}
		var cnt int64
		for cand != 0 {
			b := bits.TrailingZeros64(cand)
			cand &^= 1 << b
			if c := fold(VertexID(wi*64+b), word&(1<<b) == 0); c > 0 {
				word |= 1 << b
				cnt += c
			}
		}
		tw[wi] = word
		work.Add(worker, cnt)
	})
	return work.Sum()
}

// hasInNeighbor reports whether any of us is in src.
func hasInNeighbor(us []VertexID, src *bitset.Bitset) bool {
	for _, u := range us {
		if src.Get(u) {
			return true
		}
	}
	return false
}

// outDegree is g's out-degree of u, 0 for vertices g does not have.
func outDegree(g *graph.Graph, u VertexID) int {
	if int(u) < g.NumVertices() {
		return g.OutDegree(u)
	}
	return 0
}

// degreeChanged returns the batch's edge sources whose out-degree
// differs between oldG and newG.
func degreeChanged(oldG, newG *graph.Graph, res graph.ApplyResult) *bitset.Bitset {
	changed := bitset.New(newG.NumVertices())
	for _, list := range [][]graph.Edge{res.Added, res.Deleted} {
		for _, ed := range list {
			if outDegree(oldG, ed.From) != newG.OutDegree(ed.From) {
				changed.Set(ed.From)
			}
		}
	}
	return changed
}
