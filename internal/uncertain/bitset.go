package uncertain

import "math/bits"

// Bitset is a packed bit vector over uint64 words: bit i lives in word
// i/64 at position i%64. It is the presence representation of possible
// worlds: one bit per edge index, 64 edges per word, so whole-world
// operations (population counts, set-bit iteration, copies) run
// word-parallel instead of one branchy bool at a time.
type Bitset []uint64

// bitsetWords returns the number of words needed to hold n bits.
func bitsetWords(n int) int { return (n + 63) / 64 }

// NewBitset returns a zeroed bitset with capacity for n bits.
func NewBitset(n int) Bitset { return make(Bitset, bitsetWords(n)) }

// Get reports whether bit i is set.
func (b Bitset) Get(i int) bool { return b[uint(i)>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (b Bitset) Set(i int) { b[uint(i)>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b Bitset) Clear(i int) { b[uint(i)>>6] &^= 1 << (uint(i) & 63) }

// Reset zeroes every word.
func (b Bitset) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// ForEachSet calls fn for every set bit in ascending order.
func (b Bitset) ForEachSet(fn func(i int)) {
	for wi, w := range b {
		base := wi << 6
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// BitsetFromMask packs a bool mask into a bitset.
func BitsetFromMask(mask []bool) Bitset {
	b := NewBitset(len(mask))
	for i, p := range mask {
		if p {
			b.Set(i)
		}
	}
	return b
}

// Mask unpacks the first n bits into a fresh bool slice.
func (b Bitset) Mask(n int) []bool {
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = b.Get(i)
	}
	return mask
}

// grow returns a bitset backed by b with room for exactly n bits, reusing
// b's storage when large enough. The words' contents are unspecified: the
// world kernels overwrite every one.
func (b Bitset) grow(n int) Bitset {
	words := bitsetWords(n)
	if cap(b) < words {
		return make(Bitset, words)
	}
	return b[:words]
}
