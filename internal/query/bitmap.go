package query

import (
	"math/bits"
	"sort"
)

// Roaring-style compressed bitmaps over row ids. A bitmap partitions the
// int32 row space into 2^16-row chunks keyed by the high 16 bits; each chunk
// is stored as whichever container is smaller:
//
//   - an array container: the chunk's low 16 bits as a sorted []uint16, for
//     sparse chunks (at most arrayMaxCard rows);
//   - a dense container: a fixed 1024-word bit field, once a chunk exceeds
//     arrayMaxCard rows (beyond that point the bit field is the smaller and
//     faster representation).
//
// Dictionary-encoded columns keep one bitmap per dictionary code as their
// posting lists, so == becomes a container walk, in becomes a linear OR and
// conjunctions intersect with word-parallel ANDs instead of the sorted-slice
// merges of the sorted index's windows. Every operation preserves
// ascending row order when materialized, which is what keeps the planned
// path's candidate lists bit-identical to the oracle's dataset-order scan.

// arrayMaxCard is the array->dense conversion threshold: 4096 uint16 values
// occupy exactly the 8 KiB a dense container always costs.
const arrayMaxCard = 4096

// bmContainer holds one 2^16-row chunk of a bitmap. Exactly one of array and
// dense is non-nil.
type bmContainer struct {
	key   uint16   // high 16 bits of the rows in this container
	card  int      // number of rows set
	array []uint16 // sorted low halves (sparse form)
	dense []uint64 // 1024-word bit field (dense form)
}

// bitmap is an immutable-after-build compressed row set. Containers are
// ordered by key, so iteration yields ascending rows.
type bitmap struct {
	cs []bmContainer
	n  int // total rows set
}

// add appends one row. Rows MUST be added in strictly ascending order (the
// index builder walks the column once, in dataset order).
func (b *bitmap) add(row int32) {
	key := uint16(uint32(row) >> 16)
	low := uint16(row)
	if len(b.cs) == 0 || b.cs[len(b.cs)-1].key != key {
		b.cs = append(b.cs, bmContainer{key: key})
	}
	c := &b.cs[len(b.cs)-1]
	if c.dense != nil {
		c.dense[low>>6] |= 1 << (low & 63)
	} else if len(c.array) == arrayMaxCard {
		dense := make([]uint64, 1024)
		for _, v := range c.array {
			dense[v>>6] |= 1 << (v & 63)
		}
		dense[low>>6] |= 1 << (low & 63)
		c.array, c.dense = nil, dense
	} else {
		c.array = append(c.array, low)
	}
	c.card++
	b.n++
}

// appendRows materializes the bitmap onto dst in ascending row order.
func (b *bitmap) appendRows(dst []int32) []int32 {
	for i := range b.cs {
		c := &b.cs[i]
		base := int32(uint32(c.key) << 16)
		if c.dense == nil {
			for _, v := range c.array {
				dst = append(dst, base|int32(v))
			}
			continue
		}
		for w, word := range c.dense {
			for word != 0 {
				dst = append(dst, base|int32(w<<6)|int32(bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
	}
	return dst
}

// rows materializes the bitmap as a fresh ascending row list.
func (b *bitmap) rows() []int32 { return b.appendRows(make([]int32, 0, b.n)) }

// contains reports whether a row is set. Containers and array entries are
// sorted, so both lookups are binary searches.
func (b *bitmap) contains(row int32) bool {
	key := uint16(uint32(row) >> 16)
	low := uint16(row)
	ci := sort.Search(len(b.cs), func(i int) bool { return b.cs[i].key >= key })
	if ci == len(b.cs) || b.cs[ci].key != key {
		return false
	}
	c := &b.cs[ci]
	if c.dense != nil {
		return c.dense[low>>6]&(1<<(low&63)) != 0
	}
	ai := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= low })
	return ai < len(c.array) && c.array[ai] == low
}

// asDense renders a container as a dense bit field (its own storage when
// already dense, a scratch buffer otherwise).
func (c *bmContainer) asDense(scratch []uint64) []uint64 {
	if c.dense != nil {
		return c.dense
	}
	for i := range scratch {
		scratch[i] = 0
	}
	for _, v := range c.array {
		scratch[v>>6] |= 1 << (v & 63)
	}
	return scratch
}

// appendWords adds a dense word set back to a result bitmap as whichever
// container form fits, counting cardinality once.
func (b *bitmap) appendWords(key uint16, words []uint64) {
	card := 0
	for _, w := range words {
		card += bits.OnesCount64(w)
	}
	if card == 0 {
		return
	}
	c := bmContainer{key: key, card: card}
	if card > arrayMaxCard {
		c.dense = make([]uint64, 1024)
		copy(c.dense, words)
	} else {
		c.array = make([]uint16, 0, card)
		for w, word := range words {
			for word != 0 {
				c.array = append(c.array, uint16(w<<6)|uint16(bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
	}
	b.cs = append(b.cs, c)
	b.n += card
}

// bmAnd intersects two bitmaps into a fresh one.
func bmAnd(a, b *bitmap) *bitmap {
	out := &bitmap{}
	var scratch, words [1024]uint64
	i, j := 0, 0
	for i < len(a.cs) && j < len(b.cs) {
		ca, cb := &a.cs[i], &b.cs[j]
		switch {
		case ca.key < cb.key:
			i++
		case ca.key > cb.key:
			j++
		default:
			// Array-vs-anything: walk the smaller array and probe the other
			// side; dense-vs-dense: word-parallel AND.
			if ca.dense != nil && cb.dense != nil {
				for w := range words {
					words[w] = ca.dense[w] & cb.dense[w]
				}
				out.appendWords(ca.key, words[:])
			} else {
				arr, other := ca, cb
				if arr.dense != nil {
					arr, other = cb, ca
				}
				dense := other.asDense(scratch[:])
				base := int32(uint32(ca.key) << 16)
				for _, v := range arr.array {
					if dense[v>>6]&(1<<(v&63)) != 0 {
						out.add(base | int32(v))
					}
				}
			}
			i++
			j++
		}
	}
	return out
}

// bmOrAll unions any number of bitmaps (the in operator over dictionary
// posting lists) into a fresh bitmap. nil entries are ignored.
func bmOrAll(list []*bitmap) *bitmap {
	out := &bitmap{}
	// Merge container-by-container across all inputs in key order.
	idx := make([]int, len(list))
	var words [1024]uint64
	for {
		// Find the smallest pending container key.
		best := -1
		var bestKey uint16
		for li, b := range list {
			if b == nil || idx[li] >= len(b.cs) {
				continue
			}
			k := b.cs[idx[li]].key
			if best < 0 || k < bestKey {
				best, bestKey = li, k
			}
		}
		if best < 0 {
			return out
		}
		for i := range words {
			words[i] = 0
		}
		for li, b := range list {
			if b == nil || idx[li] >= len(b.cs) || b.cs[idx[li]].key != bestKey {
				continue
			}
			c := &b.cs[idx[li]]
			if c.dense != nil {
				for w := range words {
					words[w] |= c.dense[w]
				}
			} else {
				for _, v := range c.array {
					words[v>>6] |= 1 << (v & 63)
				}
			}
			idx[li]++
		}
		out.appendWords(bestKey, words[:])
	}
}
