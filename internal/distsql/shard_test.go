package distsql

import (
	"fmt"
	"testing"

	"talign/internal/colbatch"
)

// TestPartitionerAllocatesExactly: the counted partition assigns every
// logically present row to the shard a row-at-a-time partition would, in
// the same order — over ω keys, strings and a selection vector, and when
// a second batch lands on shards that already hold rows — and a shard
// filled from one batch holds the storage its rows need and no more,
// where appending row by row left it at the last doubling.
func TestPartitionerAllocatesExactly(t *testing.T) {
	whole := wideRel().Columnar()
	var odd colbatch.Batch
	whole.SliceInto(&odd, 0, whole.Len())
	for i := 1; i < whole.Len(); i += 2 {
		odd.Sel = append(odd.Sel, int32(i))
	}
	const workers, col = 3, 0
	part := newPartitioner(whole.Schema, workers)
	want := make([]*colbatch.Batch, workers)
	for i := range want {
		want[i] = colbatch.New(whole.Schema)
	}
	for n, b := range []*colbatch.Batch{whole, &odd} {
		part.add(b, col)
		var key []byte
		for i := 0; i < b.NumRows(); i++ {
			row := b.RowAt(i)
			key = b.Cols[col].AppendKey(key[:0], row)
			want[shardOfKey(key, workers)].AppendFrom(b, row, b.TS[row], b.TE[row])
		}
		for w, shard := range part.shards {
			if got, exp := fmt.Sprint(shard.Materialize(nil)), fmt.Sprint(want[w].Materialize(nil)); got != exp {
				t.Fatalf("after batch %d, shard %d holds\n%s\nwant\n%s", n, w, got, exp)
			}
			// Exactly, up to the allocator's size classes (an eighth apart).
			if n == 0 && (shard.Len() == 0 || shard.Cap()*8 > shard.Len()*9) {
				t.Errorf("shard %d: storage for %d rows holds %d, want its share of one batch and no more", w, shard.Cap(), shard.Len())
			}
		}
	}
}
