package parallel

import (
	"math"
	"sync/atomic"
)

// AddFloat64 atomically adds delta to *addr using a CAS loop over the
// float's bit pattern. This is the classic lock-free floating point
// accumulate used by graph engines for sum aggregations (Algorithm 1,
// line 6 of the paper uses the same primitive).
func AddFloat64(addr *uint64, delta float64) {
	for {
		old := atomic.LoadUint64(addr)
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(addr, old, nw) {
			return
		}
	}
}

// MulFloat64 atomically multiplies *addr by factor (used by Belief
// Propagation's product aggregation; retraction divides).
func MulFloat64(addr *uint64, factor float64) {
	for {
		old := atomic.LoadUint64(addr)
		nw := math.Float64bits(math.Float64frombits(old) * factor)
		if atomic.CompareAndSwapUint64(addr, old, nw) {
			return
		}
	}
}

// MinFloat64 atomically lowers *addr to v if v is smaller.
func MinFloat64(addr *uint64, v float64) bool {
	for {
		old := atomic.LoadUint64(addr)
		if math.Float64frombits(old) <= v {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, math.Float64bits(v)) {
			return true
		}
	}
}

// LoadFloat64 atomically reads a float64 stored as bits.
func LoadFloat64(addr *uint64) float64 {
	return math.Float64frombits(atomic.LoadUint64(addr))
}

// StoreFloat64 atomically writes a float64 as bits.
func StoreFloat64(addr *uint64, v float64) {
	atomic.StoreUint64(addr, math.Float64bits(v))
}

// Counter is a padded per-worker counter set merged on read. It avoids the
// cache-line ping-pong a single atomic counter would suffer during edge
// sweeps, while still being safe to add to from ForWorker bodies.
type Counter struct {
	cells []counterCell
}

type counterCell struct {
	n int64
	_ [7]int64 // pad to a cache line
}

// NewCounter returns a counter with one cell per worker.
func NewCounter() *Counter {
	return &Counter{cells: make([]counterCell, Workers())}
}

// Add adds n to the worker's cell. worker must be in [0, Workers()).
func (c *Counter) Add(worker int, n int64) {
	atomic.AddInt64(&c.cells[worker].n, n)
}

// Sum returns the total across all cells.
func (c *Counter) Sum() int64 {
	var total int64
	for i := range c.cells {
		total += atomic.LoadInt64(&c.cells[i].n)
	}
	return total
}

// Reset zeroes every cell.
func (c *Counter) Reset() {
	for i := range c.cells {
		atomic.StoreInt64(&c.cells[i].n, 0)
	}
}
