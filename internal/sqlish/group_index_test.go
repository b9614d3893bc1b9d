package sqlish_test

import (
	"regexp"
	"testing"

	"talign/internal/dataset"
	"talign/internal/plan"
	"talign/internal/relation"
	"talign/internal/server"
)

// groupIndexNote returns what an EXPLAIN ANALYZE rendering says about its
// one FusedAdjust node's group index: "built" or "shared".
func groupIndexNote(t *testing.T, text string) string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^\s*FusedAdjust .*\(group index (built|shared)\)$`).FindAllStringSubmatch(text, -1)
	if len(m) != 1 {
		t.Fatalf("want one FusedAdjust line with a group index note in:\n%s", text)
	}
	return m[0][1]
}

// TestGroupIndexSharedAcrossStatements: ALIGN on b.ssn, NORMALIZE USING
// (ssn) and an ALIGN whose group side projects b's columns in another
// order all read the one index kept with b's image — the first execution
// builds it, every later one shares it — while a computed key (b.ssn + 0)
// builds its own; all answer what a group side behind a filter, indexed
// anew at every execution, answers.
func TestGroupIndexSharedAcrossStatements(t *testing.T) {
	a := dataset.Incumben(dataset.IncumbenConfig{Rows: 1500, Seed: 1})
	b := dataset.Incumben(dataset.IncumbenConfig{Rows: 1500, Seed: 2})
	rels := map[string]*relation.Relation{"a": a, "b": b}
	const filtered = "(SELECT ssn, pcn FROM b WHERE pcn >= 0 OR ssn >= 0)"
	alignRef := "SELECT ssn, pcn, Ts, Te FROM (a ALIGN " + filtered + " y ON a.ssn = y.ssn) x"
	statements := []struct{ shared, note, reference string }{
		{"SELECT ssn, pcn, Ts, Te FROM (a ALIGN b ON a.ssn = b.ssn) x", "built", alignRef},
		{"SELECT ssn, pcn, Ts, Te FROM (a NORMALIZE b USING (ssn)) x", "shared",
			"SELECT ssn, pcn, Ts, Te FROM (a NORMALIZE " + filtered + " y USING (ssn)) x"},
		{"SELECT ssn, pcn, Ts, Te FROM (a ALIGN (SELECT pcn, ssn FROM b) y ON a.ssn = y.ssn) x", "shared", alignRef},
		// A computed key is no image column: its index is built every time.
		{"SELECT ssn, pcn, Ts, Te FROM (a ALIGN b ON a.ssn = b.ssn + 0) x", "built", alignRef},
	}
	shared, reference := newServer(plan.DefaultFlags(), false, rels), newServer(plan.DefaultFlags(), false, rels)
	run := func(e *server.Server, sql string) (*relation.Relation, string) {
		_, text, err := query(t, e, "EXPLAIN ANALYZE "+sql)
		if err != nil {
			t.Fatal(err)
		}
		rel, _, err := query(t, e, sql)
		if err != nil {
			t.Fatal(err)
		}
		return rel, groupIndexNote(t, text)
	}
	for _, st := range statements {
		got, note := run(shared, st.shared)
		if note != st.note {
			t.Errorf("%s: group index %s, want %s", st.shared, note, st.note)
		}
		ref, note := run(reference, st.reference)
		if note != "built" {
			t.Errorf("%s: a filtered group side's index was %s, want built at every execution", st.reference, note)
		}
		if got.Len() == 0 || !relation.SetEqual(got, ref) {
			onlyG, onlyR := relation.Diff(got, ref)
			t.Fatalf("%s: %d rows; only shared: %d, only reference: %d", st.shared, got.Len(), len(onlyG), len(onlyR))
		}
	}
}
