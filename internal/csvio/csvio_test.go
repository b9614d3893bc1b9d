package csvio

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"talign/internal/interval"
	"talign/internal/relation"
)

func TestRoundTrip(t *testing.T) {
	rel := relation.NewBuilder("n string", "v int", "f float", "b bool").
		Row(0, 5, "ann", 1, 1.5, true).
		Row(5, 9, nil, nil, nil, nil).
		MustBuild()
	var buf bytes.Buffer
	if err := Write(&buf, rel); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !relation.SetEqual(rel, back) {
		t.Fatalf("round trip lost data:\n%s\nvs\n%s", rel, back)
	}
	if !back.Schema.Equal(rel.Schema) {
		t.Fatalf("schema mismatch: %s vs %s", back.Schema, rel.Schema)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, csv string
	}{
		{"no ts te", "a:int,b:int\n1,2\n"},
		{"short header", "ts,te\n"},
		{"bad type", "a:blob,ts,te\n1,0,1\n"},
		{"bad int", "a:int,ts,te\nxx,0,1\n"},
		{"bad ts", "a:int,ts,te\n1,zz,1\n"},
		{"empty interval", "a:int,ts,te\n1,5,5\n"},
		{"field count", "a:int,ts,te\n1,2\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(c.csv)); err == nil {
				t.Fatalf("expected error for %q", c.csv)
			}
		})
	}
}

func TestUntypedColumnsDefaultToString(t *testing.T) {
	rel, err := Read(strings.NewReader("name,ts,te\nann,0,5\n"))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if rel.Rows()[0].Vals[0].Str() != "ann" {
		t.Fatalf("got %v", rel.Rows()[0])
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rel.csv")
	rel := relation.NewBuilder("n string").Row(0, 3, "x").MustBuild()
	if err := WriteFile(path, rel); err != nil {
		t.Fatalf("write file: %v", err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatalf("read file: %v", err)
	}
	if !relation.SetEqual(rel, back) {
		t.Fatal("file round trip lost data")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.csv")); err == nil {
		t.Fatal("missing file must fail")
	}
}

// TestPeriodColumnRejectedAtHeader: Write emits name:interval for a
// PERIOD(ts, te) result column and Read cannot parse such cells, so it
// says so once, at the header, naming the column — not once per row as
// "unsupported CSV type".
func TestPeriodColumnRejectedAtHeader(t *testing.T) {
	rel := relation.NewBuilder("n string", "p period").
		Row(0, 5, "ann", interval.New(0, 5)).
		MustBuild()
	var buf bytes.Buffer
	if err := Write(&buf, rel); err != nil {
		t.Fatalf("write: %v", err)
	}
	for _, in := range []string{buf.String(), "n,p:period,ts,te\n", "n, p:interval,ts,te\nann,x,0,5\n"} {
		_, err := Read(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 1, column p:") {
			t.Fatalf("Read(%q) = %v, want a line-1 error naming column p", in, err)
		}
	}
}
