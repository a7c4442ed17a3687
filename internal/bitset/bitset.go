// Package bitset implements a fixed-capacity bitset with atomic set
// operations, used by the engine for dense frontiers, changed-vertex sets,
// and the horizon bit-vector that seeds hybrid execution (§4.2 of the
// paper).
package bitset

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/parallel"
)

// Bitset is a fixed-capacity set of uint32 keys. Set/Get are safe for
// concurrent use; Clear/ClearAll are not (call them between parallel
// phases, as the engine does).
type Bitset struct {
	words []uint64
	n     int
}

// New returns a bitset able to hold keys in [0, n).
func New(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity n the set was created with.
func (b *Bitset) Len() int { return b.n }

// Set atomically sets bit i and reports whether it was previously clear.
func (b *Bitset) Set(i uint32) bool {
	w := &b.words[i>>6]
	mask := uint64(1) << (i & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|mask) {
			return true
		}
	}
}

// Get atomically reports whether bit i is set.
func (b *Bitset) Get(i uint32) bool {
	return atomic.LoadUint64(&b.words[i>>6])&(uint64(1)<<(i&63)) != 0
}

// Words exposes the backing words: bit i lives in word i/64 at
// position i%64. Owner-computes loops write whole words with plain
// stores, which is safe only while each word has a single writer and no
// concurrent Set touches it.
func (b *Bitset) Words() []uint64 { return b.words }

// WordMask returns the bits of word wi that hold keys below Len.
func (b *Bitset) WordMask(wi int) uint64 {
	if lim := b.n - wi*64; lim < 64 {
		return uint64(1)<<lim - 1
	}
	return ^uint64(0)
}

// Clear clears bit i. Not safe concurrently with Set on the same word.
func (b *Bitset) Clear(i uint32) {
	b.words[i>>6] &^= uint64(1) << (i & 63)
}

// ClearAll zeroes the whole set.
func (b *Bitset) ClearAll() {
	clear(b.words)
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// CountParallel is Count using the parallel runtime; worthwhile for
// multi-million-vertex sets swept every iteration.
func (b *Bitset) CountParallel() int {
	c := parallel.NewCounter()
	parallel.ForWorker(len(b.words), 1024, func(worker, start, end int) {
		var n int64
		for i := start; i < end; i++ {
			n += int64(bits.OnesCount64(b.words[i]))
		}
		c.Add(worker, n)
	})
	return int(c.Sum())
}

// Members appends all set keys to dst in ascending order and returns it.
func (b *Bitset) Members(dst []uint32) []uint32 {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			dst = append(dst, uint32(wi*64+tz))
			w &^= 1 << tz
		}
	}
	return dst
}

// Range calls fn for every set key in ascending order.
func (b *Bitset) Range(fn func(i uint32)) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(uint32(wi*64 + tz))
			w &^= 1 << tz
		}
	}
}

// Or merges other into b (b |= other). Capacities must match. Not safe
// concurrently with writers.
func (b *Bitset) Or(other *Bitset) {
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// Clone returns a copy of b.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// Bytes reports the heap footprint of the word array, used by the
// memory-overhead accounting for Table 9.
func (b *Bitset) Bytes() int64 { return int64(len(b.words)) * 8 }
