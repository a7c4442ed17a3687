package main

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
)

// inputSpec is the make-up of one workload's inputs. Every field is
// fixed per workload; only the seed varies between runs.
type inputSpec struct {
	vertices int           // RMAT vertex range
	edges    int           // base edges
	weights  gen.Weighting // edge weights, base and stream alike
	// extraVertices are appended above the RMAT range; no generated edge
	// touches them.
	extraVertices  int
	batchEdges     int     // mutations per batch
	deleteFraction float64 // share of each batch that deletes
}

// derive gives each input stream of a seed its own generator seed
// (splitmix64), so neighbouring seeds do not give correlated streams.
func derive(seed, stream uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// baseEdges draws the base graph: RMAT with a=0.57, b=0.19, c=0.19.
func baseEdges(seed uint64, sp inputSpec) []graph.Edge {
	return gen.RMAT(derive(seed, 1), sp.vertices, sp.edges, sp.weights)
}

// chunkBatches is how many batches' additions one RMAT draw makes.
const chunkBatches = 64

// batchStream deals the mutation batches of a seed in order. Additions
// are further RMAT edges over the base's range, drawn a chunk at a time;
// deletions are drawn uniformly from the edge instances present before
// their batch, so none misses and none names an edge its own batch adds.
// Batches are made as they are needed, so a run's heap holds the live
// edge list and one chunk, not the whole stream; a second stream of the
// same seed deals the same batches again for the output checks.
type batchStream struct {
	seed       uint64
	sp         inputSpec
	adds, dels int
	rng        *gen.RNG
	live       []pair
	chunk      []graph.Edge
	next       int // index of the next batch
}

func newBatchStream(seed uint64, sp inputSpec, base []graph.Edge) *batchStream {
	dels := int(float64(sp.batchEdges) * sp.deleteFraction)
	st := &batchStream{seed: seed, sp: sp, adds: sp.batchEdges - dels, dels: dels, rng: gen.NewRNG(derive(seed, 3))}
	st.live = make([]pair, len(base))
	for i, e := range base {
		st.live[i] = pair{e.From, e.To}
	}
	return st
}

// batch returns the next batch.
func (st *batchStream) batch() graph.Batch {
	k := st.next % chunkBatches
	if k == 0 {
		st.chunk = gen.RMAT(derive(st.seed, 100+uint64(st.next/chunkBatches)), st.sp.vertices, st.adds*chunkBatches, st.sp.weights)
	}
	st.next++
	b := graph.Batch{Add: st.chunk[k*st.adds : (k+1)*st.adds : (k+1)*st.adds], Del: make([]graph.Edge, st.dels)}
	for i := range b.Del {
		j := st.rng.Intn(len(st.live))
		b.Del[i] = graph.Edge{From: st.live[j].from, To: st.live[j].to}
		st.live[j] = st.live[len(st.live)-1]
		st.live = st.live[:len(st.live)-1]
	}
	for _, e := range b.Add {
		st.live = append(st.live, pair{e.From, e.To})
	}
	return b
}

// batches returns the first n batches of a fresh stream of the seed.
func batches(seed uint64, sp inputSpec, base []graph.Edge, n int) []graph.Batch {
	st := newBatchStream(seed, sp, base)
	out := make([]graph.Batch, n)
	for i := range out {
		out[i] = st.batch()
	}
	return out
}

// mirrorAfter is the mirror of the base with the first n batches of the
// seed's stream applied.
func mirrorAfter(seed uint64, sp inputSpec, base []graph.Edge, n int) (*mirror, error) {
	mr := newMirror(sp.vertices+sp.extraVertices, base)
	st := newBatchStream(seed, sp, base)
	for i := 0; i < n; i++ {
		if err := mr.apply(st.batch()); err != nil {
			return nil, fmt.Errorf("mirror: batch %d: %w", i, err)
		}
	}
	return mr, nil
}

// batchEdges counts a batch's mutations.
func batchEdges(b graph.Batch) int { return len(b.Add) + len(b.Del) }
