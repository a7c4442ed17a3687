package replicatest

import (
	"math"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
)

// scalarEqual mirrors difftest.ScalarEqual: absolute tolerance, +Inf
// equal to +Inf (unreachable SSSP vertices).
func scalarEqual(tol float64) func(got, want float64) bool {
	return func(got, want float64) bool {
		if got == want || (math.IsInf(got, 1) && math.IsInf(want, 1)) {
			return true
		}
		return math.Abs(got-want) <= tol
	}
}

func batches(t *testing.T) int {
	if testing.Short() {
		return 30
	}
	return 100
}

// TestReplicationEquivalencePageRank: ~100 randomized batches through a
// leader while an in-memory follower tails; every acked generation's
// snapshot must match the leader's bit for bit: refinement sums every
// aggregate in a graph-fixed order, so follower and leader agree exactly.
func TestReplicationEquivalencePageRank(t *testing.T) {
	Run[float64, float64](t,
		func() core.Program[float64, float64] { return algorithms.NewPageRank() },
		scalarEqual(0),
		Config{Seed: 1, Batches: batches(t)})
}

// TestReplicationEquivalenceSSSPDurable: exact-value equivalence for
// SSSP with a durable follower (re-journaling every record) and leader
// checkpoints firing mid-stream — proving the replication log survives
// WAL truncation.
func TestReplicationEquivalenceSSSPDurable(t *testing.T) {
	Run[float64, float64](t,
		func() core.Program[float64, float64] { return algorithms.NewSSSP(0) },
		scalarEqual(0),
		Config{Seed: 2, Batches: batches(t), MaxIterations: 512, DurableFollower: true, CheckpointEvery: 7})
}

// TestReplicationEquivalenceConnectedComponents: a third program shape
// (min-label propagation) over a different seed.
func TestReplicationEquivalenceConnectedComponents(t *testing.T) {
	Run[float64, float64](t,
		func() core.Program[float64, float64] { return algorithms.NewConnectedComponents() },
		scalarEqual(0),
		Config{Seed: 3, Batches: batches(t), MaxIterations: 256})
}
