// Command benchmark is the repository's one benchmark. It drives five
// workloads through the public client API (talign.Open on both DSN
// schemes, Rows drained to exhaustion), checks every result, and prints
// the end-to-end metrics BENCHMARK.json declares; a traced run replays
// each statement through the layers from outside, under a span recorder,
// and prints the per-layer metrics. README.md in this directory explains
// the workloads, the metrics and how they are expected to interact.
//
//	go run ./benchmark                        every workload, untraced
//	go run ./benchmark -traced                ... then each again, traced
//	go run ./benchmark -workload remote_stream -seed 2 -seconds 15 -trace 1
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -aa                    the whole set twice, 3 runs a side, compared with itself
//	go run ./benchmark -smoke                 n=500, 3 rounds, in one process
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

var (
	workloadFlag = flag.String("workload", "", "run this one workload in this process and print its result object as the last line")
	seedFlag     = flag.Int64("seed", 1, "seed of the data generator, the benchmark's only input")
	secondsFlag  = flag.Float64("seconds", runSeconds, "seconds of measured rounds per run")
	traceFlag    = flag.Int("trace", 0, "1: record spans and print the per-layer metrics instead of the end-to-end ones")
	tracedFlag   = flag.Bool("traced", false, "after the untraced pass, run every workload again traced")
	compareFlag  = flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
	aaFlag       = flag.Bool("aa", false, "run the whole set twice (at least 3 runs per workload a side) and compare it with itself")
	smokeFlag    = flag.Bool("smoke", false, "all workloads at n=500 for 3 rounds in this process, traced and untraced")
	repeatFlag   = flag.Int("repeat", 1, "runs per workload, each with the next seed, so that -compare has a spread")
	outFlag      = flag.String("out", ".bench_out", "directory for scratch data, span dumps and results files")
	nFlag        = flag.Int("n", 0, "rows per relation instead of the workload's frozen size (diagnosis only)")
	roundsFlag   = flag.Int("rounds", 0, "measure this many rounds instead of -seconds (diagnosis only)")
)

const (
	warmupRounds = 5
	// setupSeconds is how long a run keeps repeating its set-up.
	setupSeconds = 2
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	switch {
	case *compareFlag:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants two results files")
		}
		oldRuns, err := readResults(flag.Arg(0))
		if err != nil {
			return err
		}
		newRuns, err := readResults(flag.Arg(1))
		if err != nil {
			return err
		}
		printComparison(os.Stdout, compareRuns(oldRuns, newRuns))
		return nil
	case *workloadFlag != "":
		return runOne()
	case *smokeFlag:
		return smoke(os.Stdout, *outFlag)
	case *aaFlag:
		// Fewer runs a side have no spread, and every verdict would read
		// unresolved.
		*repeatFlag = max(*repeatFlag, minSpreadRuns)
		sets, err := runAll("results-a.json", "results-b.json")
		if err != nil {
			return err
		}
		if !printComparison(os.Stdout, compareRuns(sets[0], sets[1])) {
			return fmt.Errorf("two runs of the same code disagree beyond the bounds")
		}
		return nil
	}
	_, err := runAll("results.json")
	return err
}

func options(trace bool) runOpts {
	return runOpts{seconds: *secondsFlag, rounds: *roundsFlag, setupSeconds: setupSeconds, warmup: warmupRounds, trace: trace, keepSpans: *outFlag}
}

// runOne is the contract's entry point: one workload in this process,
// every metric by name with its unit, the result object last.
func runOne() error {
	spec, ok := findWorkload(*workloadFlag)
	if !ok {
		return fmt.Errorf("unknown workload %q", *workloadFlag)
	}
	res, err := runWorkload(spec, config{n: *nFlag, seed: *seedFlag, dir: *outFlag}, options(*traceFlag == 1))
	if err != nil {
		return err
	}
	if err := printResult(os.Stdout, spec.name, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d statements failed", spec.name, res.Failed, res.Attempted)
	}
	return nil
}

func printResult(w io.Writer, workload string, res *result) error {
	for _, line := range res.notes {
		fmt.Fprintf(w, "# %s: %s\n", workload, line)
	}
	for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
		fmt.Fprintf(w, "%s %s = %.6g %s\n", workload, name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload in a child process of its own, so that heap
// and resident set are per workload, and writes one results file per
// file. With two files (-aa) the two sets' runs of a workload alternate, so
// that the machine's slow drift lands on both sides alike.
func runAll(files ...string) ([][]runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	runs := make([][]runRecord, len(files))
	var shared []string
	passes := []int{0}
	if *tracedFlag {
		passes = append(passes, 1)
	}
	for _, trace := range passes {
		for _, spec := range workloads {
			for rep := 0; rep < *repeatFlag; rep++ {
				for set := range runs {
					seed := *seedFlag + int64(rep)
					args := []string{"-workload", spec.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(*secondsFlag),
						"-trace", fmt.Sprint(trace), "-out", *outFlag, "-n", fmt.Sprint(*nFlag), "-rounds", fmt.Sprint(*roundsFlag)}
					res, lines, err := runChild(self, args)
					if err != nil {
						return nil, fmt.Errorf("%s: %v", spec.name, err)
					}
					if trace == 0 {
						shared = append(shared, lines...)
					}
					runs[set] = append(runs[set], runRecord{Workload: spec.name, Seed: seed, Trace: trace == 1, Result: res})
				}
			}
		}
	}
	// Remote minus embedded on the shared statements is the wire's cost
	// by construction: the check on what the traced run's replay says.
	for _, line := range shared {
		fmt.Println(line)
	}
	if err := os.MkdirAll(*outFlag, 0o755); err != nil {
		return nil, err
	}
	for set, file := range files {
		path := filepath.Join(*outFlag, file)
		if err := writeResults(path, runs[set]); err != nil {
			return nil, err
		}
		fmt.Printf("results written to %s\n", path)
		for _, r := range runs[set] {
			if !r.Result.Correct {
				return runs, fmt.Errorf("%s: %d of %d statements failed", r.Workload, r.Result.Failed, r.Result.Attempted)
			}
		}
	}
	return runs, nil
}

// sharedStmt matches the untraced per-statement medians of the two
// statements embedded_temporal and remote_stream share.
var sharedStmt = regexp.MustCompile(`client\.stmt_ms\.(embedded_temporal|remote_stream)\.(align_ssn|normalize_ssn) = \S+ ms`)

// runChild runs one workload run, passes its output through, and parses
// the result object off its last line. It also returns the shared
// statements' lines, which runAll prints side by side.
func runChild(self string, args []string) (*result, []string, error) {
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(&out, os.Stdout)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("last line of output is not a result object: %v", err)
	}
	return &res, sharedStmt.FindAllString(out.String(), -1), nil
}

// smoke runs every workload small and short in this process, untraced
// and traced, and prints what a full run prints; the test suite calls it
// to hold the harness to BENCHMARK.json.
func smoke(w io.Writer, dir string) error {
	for _, spec := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(spec, config{n: 500, seed: *seedFlag, dir: dir},
				runOpts{rounds: 3, warmup: 2, trace: trace})
			if err != nil {
				return err
			}
			if err := printResult(w, spec.name, res); err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d statements failed", spec.name, res.Failed, res.Attempted)
			}
		}
	}
	return nil
}
