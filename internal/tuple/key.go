// Order-preserving tuple keys and the key-based sorter used by every sort
// hot path. A tuple encodes to a []byte whose bytes.Compare order matches
// Tuple.Compare among tuples of equal arity (all sort sites operate
// within one schema, so arity is fixed); sorting then runs over flat
// bytes — memcmp comparisons with a byte-radix fast path — instead of
// per-row polymorphic comparator closures.
package tuple

import (
	"bytes"
	"sort"

	"talign/internal/value"
)

// AppendKeyVals appends the order-preserving encodings of t's values to
// dst. For equal-arity tuples, bytes.Compare over the results matches
// CompareVals.
func (t Tuple) AppendKeyVals(dst []byte) []byte {
	for _, v := range t.Vals {
		dst = v.AppendKey(dst)
	}
	return dst
}

// AppendKey appends the full tuple key (values, then valid time) to dst.
// For equal-arity tuples, bytes.Compare over the results matches Compare.
func (t Tuple) AppendKey(dst []byte) []byte {
	return value.AppendIntervalKey(t.AppendKeyVals(dst), t.T)
}

// SortByKey sorts rows in place into the canonical Tuple.Compare order
// via encoded keys. The sort is not stable; Compare is a total order, so
// ties are bytewise-identical keys and their relative order is
// unobservable through the tuple API.
func SortByKey(rows []Tuple) {
	KeySortFunc(rows, Tuple.AppendKey)
}

// KeySortFunc decorates items with the byte keys produced by appendKey —
// encoded back to back into one shared arena — and key-sorts them. It is
// the one implementation of the decorate-and-sort idiom used by every
// sort site with a custom key layout.
func KeySortFunc[T any](items []T, appendKey func(T, []byte) []byte) {
	if len(items) < 2 {
		return
	}
	keys := make([][]byte, len(items))
	arena := make([]byte, 0, 24*len(items))
	for i := range items {
		start := len(arena)
		arena = appendKey(items[i], arena)
		keys[i] = arena[start:len(arena):len(arena)]
	}
	KeySort(items, keys)
}

// radixMinLen gates the radix fast path: below it, pdqsort's constant
// factors win.
const radixMinLen = 128

// insertionMaxLen is the bucket size at which the radix recursion hands
// off to insertion sort.
const insertionMaxLen = 24

// KeySort sorts items and keys together so that keys ascend in
// bytes.Compare order. keys[i] is the sort key of items[i]; both slices
// are permuted identically. The sort is not stable.
//
// When every key has the same length — the common case for schemas of
// fixed-width values (ints, bools, intervals, floats) — an MSD byte radix
// sort runs instead of comparison sorting.
func KeySort[T any](items []T, keys [][]byte) {
	if len(items) != len(keys) {
		panic("tuple: KeySort items/keys length mismatch")
	}
	if len(items) < 2 {
		return
	}
	if len(items) <= insertionMaxLen {
		insertionSortSuffix(items, keys, 0) // and no sort.Interface to box: a point query's sort allocates nothing
		return
	}
	if len(items) >= radixMinLen {
		if w := uniformKeyLen(keys); w > 0 {
			radixSort(items, keys, 0, w)
			return
		}
	}
	sort.Sort(keyPairs[T]{items: items, keys: keys})
}

// keyPairs adapts the parallel (items, keys) slices to sort.Interface
// without materializing a combined slice.
type keyPairs[T any] struct {
	items []T
	keys  [][]byte
}

func (k keyPairs[T]) Len() int { return len(k.items) }
func (k keyPairs[T]) Less(i, j int) bool {
	return bytes.Compare(k.keys[i], k.keys[j]) < 0
}
func (k keyPairs[T]) Swap(i, j int) {
	k.items[i], k.items[j] = k.items[j], k.items[i]
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
}

// uniformKeyLen returns the shared key length, or 0 if lengths differ
// (or keys are empty).
func uniformKeyLen(keys [][]byte) int {
	w := len(keys[0])
	if w == 0 {
		return 0
	}
	for _, k := range keys[1:] {
		if len(k) != w {
			return 0
		}
	}
	return w
}

// radixSort is an in-place MSD byte radix sort (American-flag style) over
// fixed-width keys, recursing per bucket with an insertion-sort tail.
func radixSort[T any](items []T, keys [][]byte, pos, w int) {
	for len(items) > insertionMaxLen && pos < w {
		var counts [256]int
		for _, k := range keys {
			counts[k[pos]]++
		}
		// Bucket start offsets, plus a copy that advances as we permute.
		var starts, next [256]int
		sum := 0
		for b := 0; b < 256; b++ {
			starts[b] = sum
			next[b] = sum
			sum += counts[b]
		}
		// Cycle-permute each element into its bucket.
		for b := 0; b < 256; b++ {
			end := starts[b] + counts[b]
			for i := next[b]; i < end; {
				c := keys[i][pos]
				if c == byte(b) {
					i++
					next[b] = i
					continue
				}
				j := next[c]
				items[i], items[j] = items[j], items[i]
				keys[i], keys[j] = keys[j], keys[i]
				next[c]++
			}
		}
		// Recurse into all but the largest bucket; loop on the largest to
		// bound stack depth (classic quicksort-style tail elision).
		largest, largestSize := -1, -1
		for b := 0; b < 256; b++ {
			if counts[b] > largestSize {
				largest, largestSize = b, counts[b]
			}
		}
		for b := 0; b < 256; b++ {
			if b == largest || counts[b] < 2 {
				continue
			}
			lo, hi := starts[b], starts[b]+counts[b]
			radixSort(items[lo:hi], keys[lo:hi], pos+1, w)
		}
		lo, hi := starts[largest], starts[largest]+counts[largest]
		items, keys = items[lo:hi], keys[lo:hi]
		pos++
	}
	if len(items) > 1 {
		insertionSortSuffix(items, keys, pos)
	}
}

// insertionSortSuffix insertion-sorts a small run comparing key suffixes
// from pos (the prefixes are already equal).
func insertionSortSuffix[T any](items []T, keys [][]byte, pos int) {
	for i := 1; i < len(items); i++ {
		it, k := items[i], keys[i]
		j := i - 1
		for j >= 0 && bytes.Compare(keys[j][pos:], k[pos:]) > 0 {
			items[j+1], keys[j+1] = items[j], keys[j]
			j--
		}
		items[j+1], keys[j+1] = it, k
	}
}
