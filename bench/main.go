// Command bench is the repository's one benchmark: five workloads over
// the offline replay path and the live serving path, measured end to end
// with tracing off and layer by layer with the benchmark's own
// decorators on. BENCHMARK.json at the repository root is its contract;
// README.md in this directory is the glossary.
//
//	go run ./bench                              every workload, one child process each
//	go run ./bench -trace 1                     the per-layer pass
//	go run ./bench -runs 10 -out a.json         ten seeds per workload, kept for -compare
//	go run ./bench -compare a.json b.json       deltas against each metric's bound
//	go run ./bench -workload live-http -seed 7  one workload in this process
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// env is what one workload run is given.
type env struct {
	seed    int64
	seconds float64 // how long the measured part lasts
	traced  bool
	// shrink scales invocation counts and offered rates. Runs use 1; the
	// package's own test uses a small fraction to stay in tier-1 time.
	shrink float64
}

// workload is one entry of BENCHMARK.json's "workloads".
type workload struct {
	name string
	run  func(env) (*result, error)
}

func workloads() []workload {
	var ws []workload
	for _, s := range replaySpecs {
		ws = append(ws, workload{s.name, s.run})
	}
	return append(ws,
		workload{"live-inproc", runLiveInproc},
		workload{"live-http", runLiveHTTP},
	)
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed    = fs.Int64("seed", 42, "workload seed; 7 is the held-out seed")
		seconds = fs.Float64("seconds", 15, "seconds one run measures (BENCHMARK.json run_seconds)")
		trace   = fs.Int("trace", 0, "1 runs the per-layer pass with the benchmark's decorators on")
		traced  = fs.Bool("traced", false, "same as -trace 1")
		runs    = fs.Int("runs", 1, "without -workload: runs per workload, on seeds seed, seed+1, ...")
		out     = fs.String("out", "", "also write the results (and the traced spans) to this JSON file")
		compare = fs.Bool("compare", false, "compare two -out files given as arguments, against the bounds in ./BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two files"))
		}
		regressed, err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if *seconds <= 0 || *runs < 1 {
		return fail(fmt.Errorf("-seconds and -runs must be positive"))
	}
	e := env{seed: *seed, seconds: *seconds, traced: *traced || *trace != 0, shrink: 1}
	file := outFile{Host: fingerprint(), Seconds: *seconds, Traced: e.traced}

	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := w.run(e)
		if err != nil {
			return fail(err)
		}
		rec, err := res.record()
		if err != nil {
			return fail(err)
		}
		file.Runs = []runRecord{rec}
		if err := file.write(*out); err != nil {
			return fail(err)
		}
		file.Host.print(stdout)
		rec.print(stdout)
		// The last line of standard output is the contract's result object.
		if err := json.NewEncoder(stdout).Encode(rec.contract()); err != nil {
			return fail(err)
		}
		return 0
	}

	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	file.Host.print(stdout)
	bad := false
	for _, w := range workloads() {
		for i := 0; i < *runs; i++ {
			rec, err := runChild(self, w.name, env{seed: *seed + int64(i), seconds: *seconds, traced: e.traced}, stderr)
			if err != nil {
				// One workload crashing is that workload's failure, not the suite's.
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", w.name, *seed+int64(i), err)
				bad = true
				continue
			}
			rec.print(stdout)
			fmt.Fprintf(stdout, "# %s: seed %d attempted %d failed %d correct %t\n",
				rec.Workload, rec.Seed, rec.Attempted, rec.Failed, rec.Correct)
			bad = bad || !rec.Correct
			file.Runs = append(file.Runs, rec)
		}
	}
	if *runs > 1 {
		file.printSpreads(stdout)
	}
	if err := file.write(*out); err != nil {
		return fail(err)
	}
	if bad {
		return 1
	}
	return 0
}

// runChild runs one workload in a process of its own, so peak RSS and GC
// state never leak between workloads, and reads the result object off
// the last line of its output.
func runChild(self, name string, e env, stderr io.Writer) (runRecord, error) {
	trace := "0"
	if e.traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(e.seed, 10),
		"-seconds", strconv.FormatFloat(e.seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return runRecord{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
	var c contractResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		return runRecord{}, fmt.Errorf("no result object on the last line: %w", err)
	}
	rec := runRecord{Workload: name, Seed: e.seed, Correct: c.Correct, Attempted: c.Attempted, Failed: c.Failed}
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := c.Metrics[d.Name]
		if !ok {
			return runRecord{}, fmt.Errorf("result lacks metric %s", d.Name)
		}
		rec.Metrics = append(rec.Metrics, namedValue{d, m.Value})
	}
	// Carry the child's notes (sample counts, validity), digest and
	// violations into the suite's output.
	for _, l := range lines[:len(lines)-1] {
		note, ok := strings.CutPrefix(l, "# "+name+": ")
		if !ok {
			continue
		}
		if d, ok := strings.CutPrefix(note, "digest "); ok {
			rec.Digest = d
		} else if v, ok := strings.CutPrefix(note, "VIOLATION "); ok {
			rec.Violations = append(rec.Violations, v)
		} else if v, ok := strings.CutPrefix(note, "INVALID "); ok {
			rec.Invalid = append(rec.Invalid, v)
		} else {
			rec.Notes = append(rec.Notes, note)
		}
	}
	return rec, nil
}
