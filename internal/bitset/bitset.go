// Package bitset provides dense fixed-capacity bitsets.
//
// The zero value of Set is an empty set of capacity 0; use New to allocate a
// set able to hold n bits. All operations on two sets require equal capacity
// unless stated otherwise.
package bitset

import (
	"math/bits"
)

const wordBits = 64

// Set is a fixed-capacity bitset backed by a []uint64.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for n bits.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity (number of addressable bits) of the set.
func (s *Set) Len() int { return s.n }

// Set sets bit i to 1.
func (s *Set) Set(i int) {
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear sets bit i to 0.
func (s *Set) Clear(i int) {
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Has reports whether bit i is set.
func (s *Set) Has(i int) bool {
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Or sets s to s ∪ t.
func (s *Set) Or(t *Set) {
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// And sets s to s ∩ t.
func (s *Set) And(t *Set) {
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// AndNot sets s to s \ t.
func (s *Set) AndNot(t *Set) {
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// Equal reports whether s and t contain exactly the same bits.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// Reset clears all bits, keeping capacity.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of t (capacities must match).
func (s *Set) CopyFrom(t *Set) {
	copy(s.words, t.words)
}

// ForEach calls fn for every set bit in ascending order. If fn returns
// false, iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for i, ok := s.NextSet(0); ok; i, ok = s.NextSet(i + 1) {
		if !fn(i) {
			return
		}
	}
}

// NextSet returns the index of the first set bit at or after i, and whether
// one exists. Iterating with NextSet(i+1) visits every set bit in ascending
// order without re-scanning the prefix the caller already consumed, unlike a
// Has-probe loop from zero:
//
//	for i, ok := s.NextSet(0); ok; i, ok = s.NextSet(i + 1) { ... }
//
// A start index at or beyond the capacity reports no bit.
func (s *Set) NextSet(i int) (int, bool) {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return 0, false
	}
	wi := i / wordBits
	// Mask off the bits below i in the first word, then scan whole words.
	w := s.words[wi] &^ (1<<uint(i%wordBits) - 1)
	for {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w), true
		}
		wi++
		if wi >= len(s.words) {
			return 0, false
		}
		w = s.words[wi]
	}
}

// Bits returns the indices of all set bits in ascending order.
func (s *Set) Bits() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Words exposes the backing slice for read-only scans (e.g. fast unions in
// tight loops). Callers must not modify the returned slice.
func (s *Set) Words() []uint64 { return s.words }
