package exec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestKeyTableBasics: ids are dense in insertion order, find and insert
// agree, keys read back, and growth keeps every key reachable — checked
// against a Go map over random keys of mixed lengths (including empty).
func TestKeyTableBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, hint := range []int{0, 5, 5000} {
		tab := (*keyTable)(nil).reset(hint)
		ref := map[string]int32{}
		var keys [][]byte
		for i := 0; i < 20000; i++ {
			key := make([]byte, rng.Intn(6))
			for j := range key {
				key[j] = byte(rng.Intn(4))
			}
			want, seen := ref[string(key)]
			if got := tab.find(key); seen != (got >= 0) || (seen && got != want) {
				t.Fatalf("hint %d: find(%x) = %d, want %d (present %v)", hint, key, got, want, seen)
			}
			id, added := tab.insert(key)
			if added == seen {
				t.Fatalf("hint %d: insert(%x) added=%v but present=%v", hint, key, added, seen)
			}
			if !seen {
				want = int32(len(ref))
				ref[string(key)] = want
				keys = append(keys, key)
			}
			if id != want {
				t.Fatalf("hint %d: insert(%x) = %d, want %d", hint, key, id, want)
			}
		}
		if tab.len() != len(ref) {
			t.Fatalf("hint %d: len %d, want %d", hint, tab.len(), len(ref))
		}
		for id, key := range keys {
			if got := tab.key(int32(id)); string(got) != string(key) {
				t.Fatalf("hint %d: key(%d) = %x, want %x", hint, id, got, key)
			}
		}
	}
}

// TestKeyTableAllocs pins the table's allocation behaviour: n inserts cost
// O(log n) mallocs from an empty table — the arena, offsets, hashes and
// slot array each grow geometrically — and a constant handful when the
// size hint was right.
func TestKeyTableAllocs(t *testing.T) {
	for _, n := range []int{1000, 16000, 256000} {
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = binary.BigEndian.AppendUint64(nil, uint64(i))
		}
		fill := func(hint int) float64 {
			return testing.AllocsPerRun(3, func() {
				tab := (*keyTable)(nil).reset(hint)
				for _, k := range keys {
					tab.insert(k)
				}
				if tab.len() != n {
					t.Fatalf("table holds %d keys, want %d", tab.len(), n)
				}
			})
		}
		// Four slices double together; the race detector's build of
		// slices.Grow costs one more allocation per doubling.
		if got, bound := fill(0), 5*math.Log2(float64(n)); got > bound {
			t.Errorf("n=%d, no hint: %.0f mallocs, want at most 5·log2(n) = %.0f", n, got, bound)
		}
		if got := fill(n); got > 8 {
			t.Errorf("n=%d, exact hint: %.0f mallocs, want at most 8", n, got)
		}
	}
}
