package exec

import (
	"bytes"
	"hash/maphash"
	"slices"

	"talign/internal/tuple"
)

// keyTable is the executor's one hash table: it maps distinct
// order-preserving byte keys (value.AppendKey encodings) to dense ids in
// insertion order. Set operations use it as a set, the hash aggregate and
// absorb as key → group, the hash join as key → chain of build rows (in
// chainIndex) and the fused adjust as key → run of group rows.
//
// Keys live back to back in one arena, the ids' full hashes in a flat
// slice, and the buckets are an open-addressing slot array of id+1
// probed linearly — no Go map, no per-key allocation, and growth that
// rehashes from the stored hashes without touching the keys. n inserts
// cost O(log n) allocations (four slices that double together), O(1) when
// the size hint was right — and none on a table reset from its operator's
// previous execution.
type keyTable struct {
	seed   maphash.Seed
	slots  []int32 // id+1; 0 = empty; len is a power of two
	hashes []uint64
	offs   []int32 // key id = arena[offs[id]:offs[id+1]]
	arena  []byte
	sorted [][]byte // sortedIDs scratch
}

// reset returns an empty table presized for sizeHint distinct keys (0 is
// fine: the table grows): t itself, emptied, when its operator kept it
// from the previous execution (see small) and it is large enough.
func (t *keyTable) reset(sizeHint int) *keyTable {
	size := 16
	for size < 2*sizeHint {
		size <<= 1
	}
	if t != nil && len(t.slots) >= size {
		clear(t.slots)
		t.hashes, t.offs, t.arena = t.hashes[:0], t.offs[:1], t.arena[:0]
		return t
	}
	return &keyTable{
		seed:   maphash.MakeSeed(),
		slots:  make([]int32, size),
		hashes: make([]uint64, 0, size/2),
		offs:   make([]int32, 1, size/2+1),
	}
}

// small is the retention rule (see ColIterator) for a table at Close: t
// while it holds no more than keptRows keys' worth of storage, else nil.
func (t *keyTable) small() *keyTable {
	if t == nil || len(t.slots) > 2*keptRows || cap(t.arena) > keptBytes {
		return nil
	}
	return t
}

// len returns the number of distinct keys.
func (t *keyTable) len() int { return len(t.hashes) }

// key returns the bytes of key id; the slice aliases the arena and stays
// valid (the arena only ever grows by copying).
func (t *keyTable) key(id int32) []byte {
	return t.arena[t.offs[id]:t.offs[id+1]:t.offs[id+1]]
}

// sortedIDs returns the ids in ascending key order: the deterministic
// output order of the operators that group by key.
func (t *keyTable) sortedIDs(ids []int32) []int32 {
	ids = identityPerm(ids[:0], t.len())
	t.sorted = slices.Grow(t.sorted[:0], len(ids))
	for id := range ids {
		t.sorted = append(t.sorted, t.key(int32(id)))
	}
	tuple.KeySort(ids, t.sorted)
	return ids
}

// lookup probes for key under hash h: the id, or -1 and the slot where
// the key would go.
func (t *keyTable) lookup(h uint64, key []byte) (id int32, slot uint64) {
	mask := uint64(len(t.slots) - 1)
	for slot = h & mask; ; slot = (slot + 1) & mask {
		s := t.slots[slot]
		if s == 0 {
			return -1, slot
		}
		if t.hashes[s-1] == h && bytes.Equal(t.key(s-1), key) {
			return s - 1, slot
		}
	}
}

// find returns key's id, or -1 when it was never inserted.
func (t *keyTable) find(key []byte) int32 {
	id, _ := t.lookup(maphash.Bytes(t.seed, key), key)
	return id
}

// insert returns key's id, adding it when absent.
func (t *keyTable) insert(key []byte) (id int32, added bool) {
	h := maphash.Bytes(t.seed, key)
	id, slot := t.lookup(h, key)
	if id >= 0 {
		return id, false
	}
	if len(t.arena)+len(key) > 1<<31-1 {
		panic("exec: key table arena exceeds 2 GiB")
	}
	if len(t.hashes) == len(t.slots)/2 { // keep the load at or below 1/2
		t.grow()
		_, slot = t.lookup(h, key)
	}
	id = int32(len(t.hashes))
	if len(t.arena)+len(key) > cap(t.arena) {
		// Keys of one table are mostly one width: make room for as many
		// more of them as the slot array admits before it doubles.
		t.arena = slices.Grow(t.arena, len(key)*(len(t.slots)/2-int(id)))
	}
	t.arena = append(t.arena, key...)
	t.offs = append(t.offs, int32(len(t.arena)))
	t.hashes = append(t.hashes, h)
	t.slots[slot] = id + 1
	return id, true
}

// grow doubles the slot array — and with it the room for hashes and
// offsets, which fill up exactly when the slots are half full, so the
// table's slices all reallocate here, once per doubling — and re-seats
// every id from its stored hash.
func (t *keyTable) grow() {
	n := len(t.hashes)
	t.slots = make([]int32, 2*len(t.slots))
	t.hashes = append(make([]uint64, 0, len(t.slots)/2), t.hashes...)
	t.offs = append(make([]int32, 0, len(t.slots)/2+1), t.offs...)
	mask := uint64(len(t.slots) - 1)
	for id, h := range t.hashes[:n] {
		slot := h & mask
		for t.slots[slot] != 0 {
			slot = (slot + 1) & mask
		}
		t.slots[slot] = int32(id) + 1
	}
}
