// Package frontier implements the Ligra-style VertexSubset used to drive
// selective scheduling: the set of vertices whose values changed in the
// previous iteration, held sparsely (vertex list) or densely (bitset)
// with automatic representation switching.
package frontier

import (
	"sort"
	"sync/atomic"

	"repro/internal/bitset"
)

// denseFraction is the occupancy above which a frontier flips to the
// dense representation (Ligra uses |frontier| + outdegree > |E|/20; we
// use a simpler vertex-count threshold, adequate at our scales).
const denseFraction = 20

// Frontier is a subset of [0, n). Build one with New, populate with Add
// (single-threaded) or AddAtomic (parallel), then iterate. A frontier is
// reusable via Reset.
type Frontier struct {
	n      int
	dense  atomic.Bool
	sparse []uint32
	bits   *bitset.Bitset
}

// New returns an empty frontier over [0, n).
func New(n int) *Frontier {
	return &Frontier{n: n, bits: bitset.New(n)}
}

// All returns a frontier containing every vertex.
func All(n int) *Frontier {
	f := New(n)
	f.dense.Store(true)
	for v := 0; v < n; v++ {
		f.bits.Set(uint32(v))
	}
	return f
}

// FromVertices returns a frontier holding exactly vs (duplicates ignored).
func FromVertices(n int, vs []uint32) *Frontier {
	f := New(n)
	for _, v := range vs {
		f.AddAtomic(v)
	}
	return f
}

// FromBits returns a dense frontier over the members of b and takes
// ownership of b; owner-computes loops fill b word by word and then wrap
// it.
func FromBits(b *bitset.Bitset) *Frontier {
	f := &Frontier{n: b.Len(), bits: b}
	f.dense.Store(true)
	return f
}

// Len returns the number of vertices in the subset.
func (f *Frontier) Len() int {
	if f.dense.Load() {
		return f.bits.Count()
	}
	return len(f.sparse)
}

// Universe returns n.
func (f *Frontier) Universe() int { return f.n }

// IsEmpty reports whether the subset is empty.
func (f *Frontier) IsEmpty() bool { return f.Len() == 0 }

// Has reports membership.
func (f *Frontier) Has(v uint32) bool { return f.bits.Get(v) }

// AddAtomic inserts v; safe for concurrent use. Returns true if v was new.
func (f *Frontier) AddAtomic(v uint32) bool {
	if !f.bits.Set(v) {
		return false
	}
	// Sparse list appends under no lock would race; dense mode is the
	// concurrent-friendly representation. The CAS elects a single flipper
	// to drop the sparse list; membership stays exact via the bitset and
	// Vertices() recovers the ordered list. The load keeps every later
	// member from writing the shared flag's cache line.
	if !f.dense.Load() && f.dense.CompareAndSwap(false, true) {
		f.sparse = nil
	}
	return true
}

// Add inserts v from a single goroutine, keeping the sparse list when
// below the density threshold.
func (f *Frontier) Add(v uint32) bool {
	if !f.bits.Set(v) {
		return false
	}
	if f.dense.Load() {
		return true
	}
	f.sparse = append(f.sparse, v)
	if len(f.sparse)*denseFraction > f.n {
		f.dense.Store(true)
		f.sparse = nil
	}
	return true
}

// Dense reports whether the frontier is in dense mode.
func (f *Frontier) Dense() bool { return f.dense.Load() }

// Vertices returns the members in ascending order. In sparse mode it
// sorts in place; in dense mode it materializes from the bitset.
func (f *Frontier) Vertices() []uint32 {
	if f.dense.Load() {
		return f.bits.Members(nil)
	}
	sort.Slice(f.sparse, func(i, j int) bool { return f.sparse[i] < f.sparse[j] })
	return f.sparse
}

// Bits exposes the membership bitset (valid in both modes).
func (f *Frontier) Bits() *bitset.Bitset { return f.bits }

// Reset empties the frontier for reuse.
func (f *Frontier) Reset() {
	f.bits.ClearAll()
	f.sparse = f.sparse[:0]
	f.dense.Store(false)
}
