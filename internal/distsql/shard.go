package distsql

import (
	"fmt"
	"strings"

	"talign/internal/colbatch"
	"talign/internal/schema"
)

// shardOfKey maps one partition-key value, given as its order-preserving
// key encoding (ω included), to a worker index: FNV-1a over the bytes,
// modulo the worker count. Every node that partitions — the coordinator
// loading a table, the repartitioning shuffle — must use exactly this
// function, or colocation silently breaks.
func shardOfKey(key []byte, n int) int {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return int(h % uint64(n))
}

// partitionColumn resolves a partition column name against a schema.
func partitionColumn(sch schema.Schema, col string) (int, error) {
	for i, at := range sch.Attrs {
		if at.Name == strings.ToLower(col) {
			return i, nil
		}
	}
	return -1, fmt.Errorf("distsql: partition column %q not in schema", col)
}

// newShards returns n empty appendable batches over sch, one per worker.
func newShards(sch schema.Schema, n int) []*colbatch.Batch {
	shards := make([]*colbatch.Batch, n)
	for i := range shards {
		shards[i] = colbatch.New(sch)
	}
	return shards
}

// partitionBatch appends every logically present row of b to the shard
// its column col hashes to. Value-equivalent rows agree on every
// attribute, so they always land on the same shard — the property
// shard-local dedup and alignment rely on.
func partitionBatch(shards []*colbatch.Batch, b *colbatch.Batch, col int) {
	var key []byte
	v := &b.Cols[col]
	for i, n := 0, b.NumRows(); i < n; i++ {
		row := b.RowAt(i)
		key = v.AppendKey(key[:0], row)
		shards[shardOfKey(key, len(shards))].AppendFrom(b, row, b.TS[row], b.TE[row])
	}
}
