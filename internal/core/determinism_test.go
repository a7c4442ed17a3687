package core_test

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stream"
)

// runTrace applies a 30-batch RMAT stream at the given GOMAXPROCS and
// returns every published value vector (Run first, then one per batch)
// flattened to float bits, plus the per-batch stats.
func runTrace[V any](t *testing.T, procs int, p core.Program[V, V], opts core.Options, bits func(V) []uint64) ([][]uint64, []core.Stats) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	s, err := stream.RMAT(7, 2048, 12000, gen.WeightUniform, stream.Config{BatchSize: 100, NumBatches: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(s.Base, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := func() []uint64 {
		var out []uint64
		for _, v := range eng.Values() {
			out = append(out, bits(v)...)
		}
		return out
	}
	eng.Run()
	values := [][]uint64{snap()}
	var stats []core.Stats
	for _, b := range s.Batches {
		st, err := eng.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		values = append(values, snap())
		stats = append(stats, st)
	}
	return values, stats
}

// checkDeterministic asserts runs at GOMAXPROCS 2 and 8 publish values
// bitwise equal to the run at 1, with equal work, after every batch. It
// returns the GOMAXPROCS=1 run's stats.
func checkDeterministic[V any](t *testing.T, p func() core.Program[V, V], opts core.Options, bits func(V) []uint64) []core.Stats {
	t.Helper()
	want, wantStats := runTrace(t, 1, p(), opts, bits)
	for _, procs := range []int{2, 8} {
		got, gotStats := runTrace(t, procs, p(), opts, bits)
		for g := range want {
			if len(got[g]) != len(want[g]) {
				t.Fatalf("GOMAXPROCS=%d generation %d: %d values, want %d", procs, g, len(got[g]), len(want[g]))
			}
			for i := range want[g] {
				if got[g][i] != want[g][i] {
					t.Fatalf("GOMAXPROCS=%d generation %d: value word %d = %x, want %x (GOMAXPROCS=1)",
						procs, g, i, got[g][i], want[g][i])
				}
			}
		}
		for b := range wantStats {
			if g, w := gotStats[b].EdgeComputations, wantStats[b].EdgeComputations; g != w {
				t.Fatalf("GOMAXPROCS=%d batch %d: %d edge computations, want %d", procs, b, g, w)
			}
		}
	}
	return wantStats
}

func floatBits(v float64) []uint64 { return []uint64{math.Float64bits(v)} }

func vectorBits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestDeterministicAcrossProcs: owner-computes propagation folds every
// aggregate in an order fixed by the graph, so published values are
// bit-identical at any GOMAXPROCS — for the single-pass delta path, the
// retract+propagate path over vector aggregates, and hybrid
// continuation past a horizon below MaxIterations.
func TestDeterministicAcrossProcs(t *testing.T) {
	t.Run("PageRankDelta", func(t *testing.T) {
		checkDeterministic(t, func() core.Program[float64, float64] { return algorithms.NewPageRank() },
			core.Options{Mode: core.ModeGraphBolt, MaxIterations: 10}, floatBits)
	})
	t.Run("LabelPropRetractPropagate", func(t *testing.T) {
		seeds := map[core.VertexID]int{0: 0, 1: 1, 2: 2, 100: 1, 1000: 0}
		checkDeterministic(t, func() core.Program[[]float64, []float64] { return algorithms.NewLabelProp(3, seeds) },
			core.Options{Mode: core.ModeGraphBoltRP, MaxIterations: 8}, vectorBits)
	})
	t.Run("PageRankHybrid", func(t *testing.T) {
		stats := checkDeterministic(t, func() core.Program[float64, float64] { return algorithms.NewPageRank() },
			core.Options{Mode: core.ModeGraphBolt, MaxIterations: 12, Horizon: 4}, floatBits)
		var hybrid int
		for _, st := range stats {
			hybrid += st.HybridIterations
		}
		if hybrid == 0 {
			t.Fatal("no batch ran hybrid delta levels; the config does not cover them")
		}
	})
}
