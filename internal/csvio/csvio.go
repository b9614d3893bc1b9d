// Package csvio loads and stores temporal relations as CSV files for the
// CLI and the examples. The expected layout is a header of
// "name:type,...,ts,te" followed by data rows; ts/te hold the valid-time
// interval as integers, empty cells are ω.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"talign/internal/colbatch"
	"talign/internal/relation"
	"talign/internal/schema"
	"talign/internal/value"
)

// Read parses a relation from CSV. The result is batch-born: cells are
// decoded straight into column vectors and no tuple is built.
func Read(r io.Reader) (*relation.Relation, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("csvio: reading header: %w", err)
	}
	if len(header) < 3 {
		return nil, fmt.Errorf("csvio: header needs at least one attribute plus ts,te")
	}
	if !strings.EqualFold(header[len(header)-2], "ts") || !strings.EqualFold(header[len(header)-1], "te") {
		return nil, fmt.Errorf("csvio: header must end with ts,te")
	}
	attrs := make([]schema.Attr, 0, len(header)-2)
	for _, h := range header[:len(header)-2] {
		parts := strings.SplitN(h, ":", 2)
		kind := value.KindString
		if len(parts) == 2 {
			kind, err = relation.ParseKind(parts[1])
			if err != nil {
				return nil, err
			}
			if kind == value.KindInterval {
				return nil, fmt.Errorf("csvio: line 1, column %s: type %s cannot be read from CSV", strings.TrimSpace(parts[0]), kind)
			}
		}
		attrs = append(attrs, schema.Attr{Name: strings.TrimSpace(parts[0]), Type: kind})
	}
	sch, err := schema.New(attrs...)
	if err != nil {
		return nil, err
	}
	// Typed cells append to flat per-column storage (parseCell enforces
	// the schema kinds). A string cell is a substring of its record's one
	// backing string, so the reader may reuse the record slice itself.
	cr.ReuseRecord = true
	batch := colbatch.New(sch)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			batch.SetLen(len(batch.TS))
			return relation.FromColumnar(batch), nil
		}
		if err != nil {
			return nil, fmt.Errorf("csvio: line %d: %w", line, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("csvio: line %d: %d fields, want %d", line, len(rec), len(header))
		}
		for i, cell := range rec[:len(attrs)] {
			v, err := parseCell(cell, attrs[i].Type)
			if err != nil {
				return nil, fmt.Errorf("csvio: line %d, column %s: %w", line, attrs[i].Name, err)
			}
			batch.Cols[i].Append(v)
		}
		ts, err := strconv.ParseInt(strings.TrimSpace(rec[len(attrs)]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("csvio: line %d: bad ts: %w", line, err)
		}
		te, err := strconv.ParseInt(strings.TrimSpace(rec[len(attrs)+1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("csvio: line %d: bad te: %w", line, err)
		}
		if ts >= te {
			return nil, fmt.Errorf("csvio: line %d: empty interval [%d, %d)", line, ts, te)
		}
		batch.TS, batch.TE = append(batch.TS, ts), append(batch.TE, te)
	}
}

func parseCell(cell string, kind value.Kind) (value.Value, error) {
	cell = strings.TrimSpace(cell)
	if cell == "" {
		return value.Null, nil
	}
	switch kind {
	case value.KindInt:
		i, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(i), nil
	case value.KindFloat:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return value.Null, err
		}
		return value.NewFloat(f), nil
	case value.KindBool:
		b, err := strconv.ParseBool(cell)
		if err != nil {
			return value.Null, err
		}
		return value.NewBool(b), nil
	case value.KindString:
		return value.NewString(cell), nil
	}
	return value.Null, fmt.Errorf("unsupported CSV type %s", kind)
}

// Write renders a relation as CSV with the Read layout.
func Write(w io.Writer, rel *relation.Relation) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, rel.Schema.Len()+2)
	for _, a := range rel.Schema.Attrs {
		header = append(header, a.Name+":"+a.Type.String())
	}
	header = append(header, "ts", "te")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, t := range rel.Rows() {
		rec := make([]string, 0, len(header))
		for _, v := range t.Vals {
			if v.IsNull() {
				rec = append(rec, "")
			} else {
				rec = append(rec, v.String())
			}
		}
		rec = append(rec, strconv.FormatInt(t.T.Ts, 10), strconv.FormatInt(t.T.Te, 10))
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadFile loads a relation from a CSV file.
func ReadFile(path string) (*relation.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// WriteFile stores a relation into a CSV file.
func WriteFile(path string, rel *relation.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Write(f, rel)
}
