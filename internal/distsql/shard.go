package distsql

import (
	"fmt"
	"slices"
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

// partitioner hashes batches into appendable shards, one per worker, for
// the table loader and the repartitioning shuffle alike.
type partitioner struct {
	shards []*colbatch.Batch
	of     []int32 // scratch: the shard of each logical row of the batch being added
	counts []int   // scratch: that batch's rows per shard
	key    []byte
}

func newPartitioner(sch schema.Schema, workers int) *partitioner {
	p := &partitioner{shards: make([]*colbatch.Batch, workers), counts: make([]int, workers)}
	for i := range p.shards {
		p.shards[i] = colbatch.New(sch)
	}
	return p
}

// add appends every logically present row of b, in order, to the shard
// its column col hashes to. Value-equivalent rows agree on every
// attribute, so they always land on the same shard — the property
// shard-local dedup and alignment rely on. One pass assigns the rows,
// each shard reserves exactly its share, a second pass copies.
func (p *partitioner) add(b *colbatch.Batch, col int) {
	p.of = slices.Grow(p.of[:0], b.NumRows())[:b.NumRows()]
	clear(p.counts)
	v := &b.Cols[col]
	for i := range p.of {
		p.key = v.AppendKey(p.key[:0], b.RowAt(i))
		p.of[i] = int32(shardOfKey(p.key, len(p.shards)))
		p.counts[p.of[i]]++
	}
	for w, shard := range p.shards {
		shard.Reserve(p.counts[w])
	}
	for i, w := range p.of {
		row := b.RowAt(i)
		p.shards[w].AppendFrom(b, row, b.TS[row], b.TE[row])
	}
}
