// The hr example runs Incumben-style workforce analytics on a synthetic
// job-assignment history: temporal aggregation (headcount over time),
// temporal normalization per employee, temporal difference (who holds a
// position outside their probation window), and a temporal join matching
// concurrent assignments — the workload family that motivates the paper's
// evaluation (Sec. 7).
package main

import (
	"fmt"

	"talign/internal/core"
	"talign/internal/dataset"
	"talign/internal/exec"
	"talign/internal/expr"
	"talign/internal/relation"
)

func main() {
	// A small, reproducible slice of the synthetic Incumben dataset.
	jobs := dataset.Incumben(dataset.IncumbenConfig{Rows: 300, Seed: 7})
	fmt.Printf("job assignments: %d tuples over %s\n", jobs.Len(), spanOf(jobs))

	algebra := core.Default()

	// Headcount over time: COUNT(*) per snapshot, change preserved. The
	// output has one tuple per maximal period with a constant set of
	// active assignments.
	headcount, err := algebra.Aggregation(jobs, nil, []exec.AggSpec{
		{Func: exec.AggCountStar, Name: "active"},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("headcount series: %d periods\n", headcount.Len())
	peak := int64(0)
	for _, t := range headcount.Rows() {
		if v := t.Vals[0].Int(); v > peak {
			peak = v
		}
	}
	fmt.Printf("peak concurrent assignments: %d\n", peak)

	// Employees with overlapping assignments (moonlighting): temporal self
	// join on ssn with different positions.
	left := rename(jobs, "ssn", "pcn")
	right := rename(jobs, "ssn2", "pcn2")
	moon, err := algebra.Join(left, right, expr.And(
		expr.Eq(expr.C("ssn"), expr.C("ssn2")),
		expr.Lt(expr.C("pcn"), expr.C("pcn2")), // avoid symmetric duplicates
	))
	if err != nil {
		panic(err)
	}
	fmt.Printf("overlapping assignment pairs: %d\n", moon.Len())

	// Normalization per employee: split each assignment at the start/end
	// of the same employee's other assignments (the paper's N_{ssn}).
	norm, err := algebra.Normalize(jobs, jobs, "ssn")
	if err != nil {
		panic(err)
	}
	fmt.Printf("N_ssn pieces: %d (from %d tuples)\n", norm.Len(), jobs.Len())

	// Temporal difference: periods where position 0..9 is assigned to
	// somebody but NOT covered by employee 0's assignments.
	lowPos, err := algebra.Selection(jobs, expr.Lt(expr.C("pcn"), expr.Int(10)))
	if err != nil {
		panic(err)
	}
	mine, err := algebra.Selection(jobs, expr.Eq(expr.C("ssn"), expr.Int(0)))
	if err != nil {
		panic(err)
	}
	uncovered, err := algebra.AntiJoin(lowPos, mine, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("low-position periods outside employee 0's assignments: %d\n", uncovered.Len())
}

func rename(rel *relation.Relation, names ...string) *relation.Relation {
	out := rel.Clone()
	for i := range out.Schema.Attrs {
		out.Schema.Attrs[i].Name = names[i]
	}
	return out
}

func spanOf(rel *relation.Relation) string {
	iv, ok := rel.Span()
	if !ok {
		return "[-)"
	}
	return iv.String()
}
