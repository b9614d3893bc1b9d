// Package sqltest runs SQL statements for tests: Run sends one statement
// through a server's StreamBatch, the one statement runner, and drains
// what it answers; Keys makes two answers comparable.
package sqltest

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// Stream is the part of server.RowStream a drain reads.
type Stream interface {
	Next() ([]tuple.Tuple, error)
	Schema() schema.Schema
	Plan() string
	CacheHit() bool
	Close() error
}

// Server is the statement entry point of server.Server. Run takes it as an
// interface so that the server package's own tests can call it.
type Server[S Stream] interface {
	StreamBatch(ctx context.Context, sessionID, stmtName, sql string, params []value.Value, batch int) (S, error)
}

// Result is one drained statement: its rows, or the plan text of a
// statement that answers with one (EXPLAIN, EXPLAIN ANALYZE, ANALYZE,
// CREATE TABLE, DROP TABLE), and whether its plan came out of the cache.
type Result struct {
	Rel      *relation.Relation
	Plan     string
	CacheHit bool
}

// Run executes ad-hoc SQL (stmtName == "") or a session's named prepared
// statement on srv with StreamBatch's arguments and drains the stream to
// its end.
func Run[S Stream](ctx context.Context, srv Server[S], sessionID, stmtName, sql string, params []value.Value, batch int) (Result, error) {
	rs, err := srv.StreamBatch(ctx, sessionID, stmtName, sql, params, batch)
	if err != nil {
		return Result{}, err
	}
	defer rs.Close()
	if plan := rs.Plan(); plan != "" {
		return Result{Plan: plan, CacheHit: rs.CacheHit()}, nil
	}
	rel := relation.New(rs.Schema())
	for {
		b, err := rs.Next()
		if err != nil {
			return Result{}, err
		}
		if len(b) == 0 {
			return Result{Rel: rel, CacheHit: rs.CacheHit()}, nil
		}
		// Batches are reused by the executor; the tuple structs copy
		// safely per the batch ownership contract.
		rel.Tuples = append(rel.Tuples, b...)
	}
}

// MustRun runs ad-hoc sql on srv at the default batch size like Run and
// fails the test on an error.
func MustRun[S Stream](t testing.TB, srv Server[S], sql string) Result {
	t.Helper()
	res, err := Run(t.Context(), srv, "", "", sql, nil, 0)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// Keys renders rel's rows as their key encodings (values, then valid
// time), sorted: two results hold the same multiset of rows exactly when
// their Keys are equal.
func Keys(rel *relation.Relation) [][]byte {
	keys := make([][]byte, 0, rel.Len())
	for _, tp := range rel.Rows() {
		keys = append(keys, tp.AppendKey(nil))
	}
	slices.SortFunc(keys, bytes.Compare)
	return keys
}
