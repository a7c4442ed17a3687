package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
)

// fiveVertex is the hand-worked graph the checker tests use:
//
//	0->1 (w1), 0->1 (w7), 0->2 (w4), 1->2 (w2), 1->3 (w5), 2->3 (w1), 3->4 (w3)
//
// Out-degrees are 3, 2, 1, 1, 0; 0->1 is a parallel pair.
func fiveVertex() *mirror {
	return newMirror(5, []graph.Edge{
		{From: 0, To: 1, Weight: 7},
		{From: 0, To: 2, Weight: 4},
		{From: 1, To: 2, Weight: 2},
		{From: 1, To: 3, Weight: 5},
		{From: 2, To: 3, Weight: 1},
		{From: 3, To: 4, Weight: 3},
		{From: 0, To: 1, Weight: 1},
	})
}

func TestReferenceSSSPHandWorked(t *testing.T) {
	inf := math.Inf(1)
	// Two rounds reach paths of at most two edges: 0-1 (1), 0-1-2 (3),
	// 0-1-3 (6) beaten by 0-2-3 (5); vertex 4 is three edges away.
	if err := compareExact(referenceSSSP(fiveVertex(), 0, 2), []float64{0, 1, 3, 5, inf}); err != nil {
		t.Fatalf("2 rounds: %v", err)
	}
	// Ten rounds converge: 0-1-2-3-4 = 1+2+1+3.
	if err := compareExact(referenceSSSP(fiveVertex(), 0, 10), []float64{0, 1, 3, 4, 7}); err != nil {
		t.Fatalf("10 rounds: %v", err)
	}
}

func TestReferenceSSSPPartitionedHandWorked(t *testing.T) {
	// Shard 0 owns 0, 2, 4 and the edges into them: 0->2 (w4), 1->2,
	// 3->4. Shard 1 owns 1, 3 and 0->1 (twice), 1->3, 2->3. Each shard
	// sees only its own edges, so 2 is at 4 (1 is unreached in shard 0),
	// 3 at 6 via 1 (2 is unreached in shard 1), and 4 is never reached.
	owner := func(v graph.VertexID) int { return []int{0, 1, 0, 1, 0}[v] }
	got := referenceSSSPPartitioned(fiveVertex(), 0, 10, 2, owner)
	if err := compareExact(got, []float64{0, 1, 4, 6, math.Inf(1)}); err != nil {
		t.Fatal(err)
	}
	// One shard is the single-engine reference.
	one := func(graph.VertexID) int { return 0 }
	if err := compareExact(referenceSSSPPartitioned(fiveVertex(), 0, 10, 1, one), referenceSSSP(fiveVertex(), 0, 10)); err != nil {
		t.Fatal(err)
	}
}

func TestMirrorDeleteRemovesLightestInstance(t *testing.T) {
	mr := fiveVertex()
	if err := mr.apply(graph.Batch{Del: []graph.Edge{{From: 0, To: 1}}}); err != nil {
		t.Fatal(err)
	}
	if mr.m != 6 {
		t.Fatalf("edge count %d, want 6", mr.m)
	}
	// Only 0->1 (w7) is left: 1 is at 7, 2 at 4 via 0->2, 3 at 5, 4 at 8.
	if err := compareExact(referenceSSSP(mr, 0, 10), []float64{0, 7, 4, 5, 8}); err != nil {
		t.Fatal(err)
	}
	// A delete matches only edges present before its batch.
	err := mr.apply(graph.Batch{Add: []graph.Edge{{From: 4, To: 0, Weight: 1}}, Del: []graph.Edge{{From: 4, To: 0}}})
	if err == nil || !strings.Contains(err.Error(), "4->0") {
		t.Fatalf("delete of an edge added in the same batch: err %v", err)
	}
}

func TestReferencePageRankHandWorked(t *testing.T) {
	const d = 0.85
	// Round 1 from all-ones: 1 gets two thirds of 0's rank (two parallel
	// edges out of three), 2 gets a third of 0 and half of 1, 3 gets half
	// of 1 and all of 2, 4 all of 3; 0 has no in-edges.
	r1 := []float64{
		1 - d,
		1 - d + d*(2.0/3),
		1 - d + d*(1.0/3+1.0/2),
		1 - d + d*(1.0/2+1),
		1 - d + d*1,
	}
	if err := compareRelative(referencePageRank(fiveVertex(), d, 1), r1, 1e-12); err != nil {
		t.Fatalf("1 round: %v", err)
	}
	r2 := []float64{
		1 - d,
		1 - d + d*(2*r1[0]/3),
		1 - d + d*(r1[0]/3+r1[1]/2),
		1 - d + d*(r1[1]/2+r1[2]),
		1 - d + d*r1[3],
	}
	if err := compareRelative(referencePageRank(fiveVertex(), d, 2), r2, 1e-12); err != nil {
		t.Fatalf("2 rounds: %v", err)
	}
}

func TestCheckersCatchOnePerturbedVertex(t *testing.T) {
	pr := referencePageRank(fiveVertex(), 0.85, 10)
	bad := append([]float64(nil), pr...)
	bad[3] *= 1 + 1e-6
	if err := compareRelative(bad, pr, 1e-9); err == nil || !strings.Contains(err.Error(), "vertex 3") {
		t.Fatalf("PageRank check missed a perturbed vertex: %v", err)
	}
	if err := compareRelative(pr, pr, 1e-9); err != nil {
		t.Fatalf("PageRank check refused the reference itself: %v", err)
	}

	sp := referenceSSSP(fiveVertex(), 0, 10)
	bad = append([]float64(nil), sp...)
	bad[4]++
	if err := compareExact(bad, sp); err == nil || !strings.Contains(err.Error(), "vertex 4") {
		t.Fatalf("SSSP check missed a perturbed vertex: %v", err)
	}
}
