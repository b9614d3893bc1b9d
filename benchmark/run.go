package main

import (
	"context"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"talign"
	"talign/internal/value"
)

// outcome is what draining one statement produced.
type outcome struct {
	rows int
	// sum is an order-independent checksum over every drained value.
	sum      uint64
	plan     string
	firstRow time.Duration // Query call to the first Next()==true; 0 without rows
	dur      time.Duration
}

// exec runs one statement of a round through the client connection and
// drains its result to exhaustion.
func (e *env) exec(ctx context.Context, st *statement, round int) (outcome, error) {
	t0 := time.Now()
	var out outcome
	if st.op != nil {
		err := st.op(ctx)
		out.dur = time.Since(t0)
		return out, err
	}
	var rows *talign.Rows
	var err error
	if st.args != nil {
		rows, err = st.stmt.Query(ctx, st.args(round)...)
	} else {
		rows, err = e.db.Query(ctx, st.sql(round))
	}
	if err != nil {
		return out, err
	}
	defer rows.Close()
	out.plan = rows.Plan()
	for rows.Next() {
		if out.rows == 0 {
			out.firstRow = time.Since(t0)
		}
		out.rows++
		out.sum += rowHash(rows.Values())
	}
	out.dur = time.Since(t0)
	return out, rows.Err()
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// rowHash hashes one row position-sensitively; the statement checksum is
// the wrapping sum of its row hashes, so row order does not matter but
// every value, kind and column position does.
func rowHash(vals []value.Value) uint64 {
	h := uint64(fnvOffset)
	word := func(x uint64) { h = (h ^ x) * fnvPrime }
	for _, v := range vals {
		word(uint64(v.Kind()))
		switch v.Kind() {
		case value.KindNull:
		case value.KindBool:
			if v.Bool() {
				word(1)
			}
		case value.KindInt:
			word(uint64(v.Int()))
		case value.KindFloat:
			word(math.Float64bits(v.Float()))
		case value.KindString:
			for _, c := range []byte(v.Str()) {
				word(uint64(c))
			}
		case value.KindInterval:
			word(uint64(v.Interval().Ts))
			word(uint64(v.Interval().Te))
		}
	}
	// Final avalanche so that sums of similar rows do not cancel.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// checker is the correctness gate: it counts statements attempted and
// statements that errored or returned a wrong result.
type checker struct {
	attempted, failed int
	// want holds the verification round's outcome per statement.
	want []outcome
	// ref answers refSQL on a plain embedded engine (nil when the
	// workload is itself the reference).
	ref      *talign.DB
	messages []string
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.messages) < 10 {
		c.messages = append(c.messages, fmt.Sprintf(format, args...))
	}
}

func same(a, b outcome) bool { return a.rows == b.rows && a.sum == b.sum }

// check judges one round's outcomes. The first round it sees is the
// verification round: statements with a reference text are compared with
// the embedded engine's answer, and the outcomes become the expectation
// every later round of a fixed statement must repeat.
func (c *checker) check(e *env, round int, outs []outcome, errs []error) {
	verify := c.want == nil
	for i := range e.stmts {
		st := &e.stmts[i]
		c.attempted++
		switch {
		case errs[i] != nil:
			c.fail("round %d %s: %v", round, st.name, errs[i])
		case st.wantPlan != "" && outs[i].plan != st.wantPlan:
			c.fail("round %d %s: plan %q, want %q", round, st.name, outs[i].plan, st.wantPlan)
		case st.sameAs >= 0 && !same(outs[i], outs[st.sameAs]):
			c.fail("round %d %s: %d rows sum %x, but %s gave %d rows sum %x", round, st.name,
				outs[i].rows, outs[i].sum, e.stmts[st.sameAs].name, outs[st.sameAs].rows, outs[st.sameAs].sum)
		case !verify && !st.varying && !same(outs[i], c.want[i]):
			c.fail("round %d %s: %d rows sum %x, verification round had %d rows sum %x", round, st.name,
				outs[i].rows, outs[i].sum, c.want[i].rows, c.want[i].sum)
		case verify && c.ref != nil && st.refSQL != nil:
			refStmt := statement{sql: st.refSQL}
			want, err := (&env{db: c.ref}).exec(context.Background(), &refStmt, round)
			if err != nil {
				c.fail("reference for %s: %v", st.name, err)
			} else if !same(outs[i], want) {
				c.fail("%s: %d rows sum %x, embedded reference has %d rows sum %x", st.name,
					outs[i].rows, outs[i].sum, want.rows, want.sum)
			}
		}
	}
	if verify {
		c.want = append([]outcome(nil), outs...)
	}
}

// sample is the raw material of one measured stretch of rounds.
type sample struct {
	roundMS    []float64
	firstRowMS []float64
	stmtMS     map[string][]float64
	// rssMiB is the resident set at the end of every round.
	rssMiB  []float64
	rows    int
	wall    time.Duration
	mallocs uint64
	bytes   uint64
}

// runRounds executes rounds first, first+1, ... until stop says so,
// checking every statement, and returns what it measured.
func runRounds(e *env, chk *checker, first int, stop func(done int, elapsed time.Duration) bool) sample {
	ctx := context.Background()
	s := sample{stmtMS: map[string][]float64{}}
	outs := make([]outcome, len(e.stmts))
	errs := make([]error, len(e.stmts))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	for done := 0; !stop(done, time.Since(begin)); done++ {
		t0 := time.Now()
		for i := range e.stmts {
			outs[i], errs[i] = e.exec(ctx, &e.stmts[i], first+done)
		}
		s.roundMS = append(s.roundMS, ms(time.Since(t0)))
		s.firstRowMS = append(s.firstRowMS, ms(outs[0].firstRow))
		for i := range e.stmts {
			s.rows += outs[i].rows
			s.stmtMS[e.stmts[i].name] = append(s.stmtMS[e.stmts[i].name], ms(outs[i].dur))
		}
		chk.check(e, first+done, outs, errs)
		s.rssMiB = append(s.rssMiB, residentMiB())
	}
	s.wall = time.Since(begin)
	runtime.ReadMemStats(&after)
	s.mallocs = after.Mallocs - before.Mallocs
	s.bytes = after.TotalAlloc - before.TotalAlloc
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runOpts sets how long and how one workload run measures.
type runOpts struct {
	// seconds of measured rounds; rounds > 0 measures that many instead.
	seconds float64
	rounds  int
	// Set-up runs once and then again until setupSeconds have been spent
	// on it (at most maxSetups times), because a set-up of a few
	// milliseconds needs many repetitions for its median to repeat.
	// setup_s is the median.
	setupSeconds float64
	warmup       int
	trace        bool
	// keepSpans is where a traced run leaves its span dump ("" = nowhere).
	keepSpans string
}

// metric is one named value with its unit, as the contract prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are human-readable lines printed above the result: quartiles,
	// sample counts, per-statement times, failures.
	notes []string
}

// set records a metric. A value without samples behind it (NaN) is
// recorded as 0 and said so, because the result object must stay JSON.
func (r *result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.note("%s had no samples; reported as 0", name)
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

const maxSetups = 100

// runWorkload sets the workload up (several times, for a steady
// setup_s), verifies it, warms it up and measures it.
func runWorkload(spec workloadSpec, cfg config, opts runOpts) (*result, error) {
	cfg.workload = spec.name
	if cfg.n == 0 {
		cfg.n = spec.n
	}
	// A traced run reports no setup_s, so it sets up once.
	if opts.trace {
		opts.setupSeconds = 0
	}
	base := cfg.dir
	var e *env
	var setupS []float64
	var spent float64
	for i := 0; i == 0 || (spent < opts.setupSeconds && i < maxSetups); i++ {
		if e != nil {
			e.close()
			os.RemoveAll(cfg.dir)
		}
		dir, err := workDir(base, spec.name)
		if err != nil {
			return nil, err
		}
		cfg.dir = dir
		runtime.GC()
		t0 := time.Now()
		e, err = spec.setup(cfg)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("%s: set-up: %v", spec.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		spent += setupS[i]
	}
	defer os.RemoveAll(cfg.dir)
	defer e.close()

	chk := &checker{}
	if e.rels != nil {
		ref, err := openEmbedded(e.rels)
		if err != nil {
			return nil, err
		}
		chk.ref = ref
	}
	// Warm-up: plan caches, memoized columnar images and lazy set-up fill
	// here, because users pay those once. Its first round verifies.
	runRounds(e, chk, 0, func(done int, _ time.Duration) bool { return done >= opts.warmup })
	if chk.ref != nil {
		chk.ref.Close()
		chk.ref = nil
	}
	runtime.GC()

	stop := func(done int, elapsed time.Duration) bool { return elapsed.Seconds() >= opts.seconds }
	if opts.rounds > 0 {
		stop = func(done int, _ time.Duration) bool { return done >= opts.rounds }
	}
	res := &result{Metrics: map[string]metric{}}
	if opts.trace {
		if err := runTraced(e, cfg, chk, opts, stop, res); err != nil {
			return nil, err
		}
	} else {
		s := runRounds(e, chk, opts.warmup, stop)
		endToEnd(res, spec.name, s, setupS)
	}
	res.Attempted, res.Failed = chk.attempted, chk.failed
	res.Correct = chk.failed == 0
	res.note("failed_ops_share = %g ratio (%d of %d statements)", float64(chk.failed)/float64(chk.attempted), chk.failed, chk.attempted)
	for _, m := range chk.messages {
		res.note("FAILED %s", m)
	}
	return res, nil
}

// rssRounds is how many measured rounds peak_rss_mb looks at. A fixed
// count, not the whole run: on segments_rw the resident set grows with
// every round (a dropped table's segments stay mapped), so over a fixed
// time a faster host reads a larger peak.
const rssRounds = 100

// endToEnd turns an untraced sample into the end-to-end metrics.
func endToEnd(res *result, workload string, s sample, setupS []float64) {
	n := len(s.roundMS)
	res.set("allocs_per_row", float64(s.mallocs)/float64(s.rows))
	res.set("alloc_bytes_per_row", float64(s.bytes)/float64(s.rows))
	res.set("peak_rss_mb", percentile(s.rssMiB[:min(n, rssRounds)], 90))
	res.set("setup_s", median(setupS))
	if n < rssRounds {
		res.note("WARNING: peak_rss_mb is over %d rounds, fewer than its %d", n, rssRounds)
	}
	res.note("resident set after the last of %d rounds = %.1f MiB", n, s.rssMiB[n-1])
	// The four timings are metrics of the traced run; here they are notes.
	res.note("round_ms p25 = %.3f, p50 = %.3f, p75 = %.3f, p90 = %.3f over %d rounds (%d rows per round)",
		percentile(s.roundMS, 25), median(s.roundMS), percentile(s.roundMS, 75), percentile(s.roundMS, 90), n, s.rows/max(n, 1))
	res.note("first_row_ms p50 = %.4f, %.0f rows/s", median(s.firstRowMS), float64(s.rows)/s.wall.Seconds())
	if !tailSupported(n, 90) {
		res.note("WARNING: %d rounds leave fewer than ten samples beyond p90", n)
	}
	for _, name := range slices.Sorted(maps.Keys(s.stmtMS)) {
		res.note("client.stmt_ms.%s.%s = %.3f ms", workload, name, median(s.stmtMS[name]))
	}
}

// residentMiB reads the process's resident set. The metric built on it
// is the 90th percentile over the first rssRounds measured rounds, not
// the kernel's high-water mark: a maximum over the whole life of the
// process, seven set-ups included, grows with the length of the run and
// does not repeat from one run to the next.
func residentMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return math.NaN()
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return math.NaN()
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return math.NaN()
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
