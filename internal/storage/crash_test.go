package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"talign/internal/faultinject"
	"talign/internal/interval"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/tuple"
	"talign/internal/value"
)

// faultSites are the storage-layer kill points the torture test crashes
// at: every site the write paths pass through.
var faultSites = []string{
	"storage.seg.write",
	"storage.seg.sync",
	"storage.wal.append",
	"storage.wal.torn",
	"storage.wal.sync",
	"storage.wal.truncate",
	"storage.manifest.write",
	"storage.manifest.rename",
	"storage.checkpoint",
}

var tortureSchema = schema.MustNew(
	schema.Attr{Name: "a", Type: value.KindInt},
	schema.Attr{Name: "s", Type: value.KindString},
)

// randRows builds deterministic random rows for the torture oracle.
func randRows(rng *rand.Rand, n int) []tuple.Tuple {
	rows := make([]tuple.Tuple, n)
	for i := range rows {
		ts := rng.Int63n(1000)
		a := value.NewInt(rng.Int63n(50))
		if rng.Intn(8) == 0 {
			a = value.Null
		}
		rows[i] = tuple.Tuple{
			Vals: []value.Value{a, value.NewString(string(rune('a' + rng.Intn(26))))},
			T:    interval.New(ts, ts+1+rng.Int63n(40)),
		}
	}
	return rows
}

// oracle is the in-memory reference: the rows of every acknowledged
// table.
type oracle map[string][]tuple.Tuple

func (o oracle) clone() oracle {
	c := make(oracle, len(o))
	for k, v := range o {
		c[k] = append([]tuple.Tuple(nil), v...)
	}
	return c
}

// tortureRelation wraps torture rows in a relation.
func tortureRelation(rows []tuple.Tuple) *relation.Relation {
	rel := relation.New(tortureSchema)
	rel.Tuples = append(rel.Tuples, rows...)
	return rel
}

// storeMatches reports whether the reopened store serves exactly the
// oracle's tables and rows.
func storeMatches(t *testing.T, s *Store, o oracle) bool {
	t.Helper()
	names := s.Tables()
	if len(names) != len(o) {
		return false
	}
	for _, name := range names {
		want, ok := o[name]
		if !ok {
			return false
		}
		got, err := s.Load(name)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		if !relation.SetEqual(got, tortureRelation(want)) {
			return false
		}
	}
	return true
}

// createOrDrop runs one logical change to table name against s: a drop
// when committed holds the table, else a create with fresh random rows.
// It returns the change the call meant to make, for applying to an
// oracle, together with the call's error.
func createOrDrop(rng *rand.Rand, s *Store, committed oracle, name string) (func(oracle), error) {
	if _, exists := committed[name]; exists {
		return func(o oracle) { delete(o, name) }, s.DropTable(name)
	}
	rows := randRows(rng, 1+rng.Intn(40))
	return func(o oracle) { o[name] = rows }, s.CreateTable(name, tortureRelation(rows))
}

// TestCrashRecoveryTorture drives a random operation mix (create, drop,
// checkpoint, restart) against a store while injecting a failure at a
// random storage kill point every few steps. After a failure it half the
// time keeps issuing operations on the same store first; then it
// simulates a crash (close without checkpoint, reset faults, reopen) and
// checks the crash-consistency contract against an in-memory oracle:
//
//   - atomicity: the reopened store equals either the oracle BEFORE the
//     failed operation or AFTER it — never a partial state;
//   - durability: every operation acknowledged, before the failure or
//     after it, is still visible;
//   - fail-stop: once a WAL write has failed, the store acknowledges no
//     further create or drop until it is reopened.
func TestCrashRecoveryTorture(t *testing.T) {
	defer faultinject.Reset()
	tables := []string{"t0", "t1", "t2"}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		s.SegmentRows = 8
		committed := oracle{}

		reopen := func() {
			s.Close()
			faultinject.Reset()
			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("seed %d: reopen: %v", seed, err)
			}
			s2.SegmentRows = 8
			s = s2
		}

		for step := 0; step < 120; step++ {
			name := tables[rng.Intn(len(tables))]
			inject := rng.Intn(3) == 0
			site := ""
			if inject {
				site = faultSites[rng.Intn(len(faultSites))]
				faultinject.Arm(site, faultinject.Fault{Kind: faultinject.KindError})
			}

			// Pick and run one operation. applied is the state the
			// operation MEANT to produce — tracked even when the call
			// errors, because a failed fsync can still leave the record
			// durable (the bytes reached the file).
			applied := committed.clone()
			var opErr error
			switch op := rng.Intn(10); {
			case op < 8: // create or drop (replacing tables is not allowed)
				var change func(oracle)
				change, opErr = createOrDrop(rng, s, committed, name)
				change(applied)
			case op < 9: // checkpoint: no logical data change either way
				opErr = s.Checkpoint()
			default: // clean restart
				reopen()
				if !storeMatches(t, s, committed) {
					t.Fatalf("seed %d step %d: clean restart diverged from oracle", seed, step)
				}
			}

			if opErr != nil {
				// The operation failed (injected). Half the time the
				// store keeps serving before the crash: every operation
				// it acknowledges now must survive the reopen, on top of
				// either outcome of the failed one.
				if rng.Intn(2) == 0 {
					faultinject.Reset()
					walFailed := strings.HasPrefix(site, "storage.wal.")
					for k := 1 + rng.Intn(4); k > 0; k-- {
						var change func(oracle)
						var err error
						if rng.Intn(4) == 0 {
							err = s.Checkpoint()
						} else {
							change, err = createOrDrop(rng, s, committed, tables[rng.Intn(len(tables))])
						}
						if err != nil {
							continue
						}
						if walFailed {
							t.Fatalf("seed %d step %d: operation acknowledged after a failed WAL write at %s", seed, step, site)
						}
						if change != nil {
							change(committed)
							change(applied)
						}
					}
				}
				// Crash and reopen: the store must be wholly before or
				// wholly after the failed operation.
				reopen()
				matchCommitted := storeMatches(t, s, committed)
				matchApplied := storeMatches(t, s, applied)
				if !matchCommitted && !matchApplied {
					t.Fatalf("seed %d step %d: after injected failure at %s the store matches neither pre- nor post-op oracle",
						seed, step, site)
				}
				if matchApplied && !matchCommitted {
					// The operation turned out durable after all (e.g. a
					// failed fsync whose bytes still reached the file).
					committed = applied
				}
				continue
			}
			committed = applied
			faultinject.Reset()
		}

		// Final verdict: a clean close and reopen serves exactly the
		// acknowledged state.
		reopen()
		if !storeMatches(t, s, committed) {
			t.Fatalf("seed %d: final state diverged from oracle", seed)
		}
		s.Close()
	}
}

// TestTornWALTailTruncated pins the torn-write behavior precisely: a
// commit that crashes mid-record leaves a torn tail, the store refuses
// further commits, replay at the next open stops before the tail and
// truncates it, and the log keeps working.
func TestTornWALTailTruncated(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s.SegmentRows = 8
	rng := rand.New(rand.NewSource(42))
	base := tortureRelation(randRows(rng, 20))
	if err := s.CreateTable("t", base); err != nil {
		t.Fatalf("create: %v", err)
	}

	faultinject.Arm("storage.wal.torn", faultinject.Fault{Kind: faultinject.KindError})
	if err := s.CreateTable("u", tortureRelation(randRows(rng, 5))); err == nil {
		t.Fatal("create with torn WAL write succeeded")
	}
	faultinject.Reset()
	if err := s.DropTable("t"); err == nil {
		t.Fatal("drop behind a torn WAL write succeeded")
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	defer s2.Close()
	if names := s2.Tables(); len(names) != 1 || names[0] != "t" {
		t.Fatalf("tables after torn create: %v", names)
	}
	got, err := s2.Load("t")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !relation.SetEqual(got, base) {
		t.Fatal("torn create lost committed rows")
	}

	// The truncated log must accept and replay new records.
	extra := tortureRelation(randRows(rng, 3))
	if err := s2.CreateTable("u", extra); err != nil {
		t.Fatalf("create after torn-tail truncation: %v", err)
	}
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer s3.Close()
	got3, err := s3.Load("u")
	if err != nil {
		t.Fatalf("load 3: %v", err)
	}
	if !relation.SetEqual(got3, extra) {
		t.Fatal("create after truncation not durable")
	}
}

// TestUndecodableWALRecordRefused: a whole, checksum-valid record that
// does not decode — a retired append record (type 3) or an unknown type
// — is no torn tail. Open fails with ErrCorrupt rather than truncating
// it and the committed drop behind it, and leaves the log untouched.
func TestUndecodableWALRecordRefused(t *testing.T) {
	frameRec := func(payload []byte) []byte {
		rec := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
		return append(rec, payload...)
	}
	retired := func() []byte { // one row, as the append path encoded it
		var e enc
		e.u64(2)
		e.u8(3)
		e.str("a")
		e.u32(1)
		e.u16(2)
		e.i64(0)
		e.i64(5)
		e.val(value.NewInt(1))
		e.val(value.NewString("x"))
		return e.b
	}()
	unknown := encodeWALDrop(2, "a")
	unknown[8] = 0x7f
	for name, bad := range map[string][]byte{"retired append": retired, "unknown type": unknown} {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CreateTable("a", relation.New(tortureSchema)); err != nil {
			t.Fatal(err)
		}
		s.Close()
		path := filepath.Join(dir, "wal.log")
		log, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		log = append(append(log, frameRec(bad)...), frameRec(encodeWALDrop(3, "a"))...)
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(dir); !errors.Is(err, ErrCorrupt) {
			if err == nil {
				s.Close()
			}
			t.Fatalf("%s: open over an undecodable record: %v, want ErrCorrupt", name, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, log) {
			t.Fatalf("%s: wal.log changed from %d to %d bytes (%v)", name, len(log), len(after), err)
		}
	}
}
