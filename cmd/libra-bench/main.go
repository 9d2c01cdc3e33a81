// Command libra-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	libra-bench              # run every experiment
//	libra-bench -list        # list experiment ids
//	libra-bench -exp fig6    # run one experiment
//	libra-bench -quick       # trimmed sweeps for a fast pass
//	libra-bench -seed 7 -reps 5
//	libra-bench -parallel 8  # bound the worker pool (default GOMAXPROCS)
//	libra-bench -exp figo1 -trace out.jsonl
//	libra-bench -json BENCH_PR5.json   # benchmark mode: perf trajectory report
//	libra-bench -elastic BENCH_PR8.json  # full-scale figs4 + decision-cost record
//
// Each experiment fans its independent (config × repetition) units over
// a worker pool; the rendered output is byte-identical for every
// -parallel value. Ctrl-C cancels between units. -trace records every
// unit's invocation-lifecycle events (DESIGN.md §6e) and writes the
// merged JSONL — also byte-identical across -parallel values — when all
// experiments finish.
//
// Benchmark mode (-json FILE) runs the fixed hot-path micro-benchmark
// registry plus a quick-mode wall-time pass over every experiment cell
// and writes a benchkit report: the first run records the baseline
// snapshot, later runs preserve it and refresh the current one, so the
// committed file carries the perf trajectory across PRs. Benchstat-
// comparable lines are printed to stdout as the benchmarks run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"libra/internal/benchkit"
	"libra/internal/cliflags"
	"libra/internal/experiments"
	"libra/internal/obs"
)

// runBenchmarks is the -json mode: measure the hot-path registry (and
// optionally every experiment cell), merge into any existing report so
// the baseline snapshot is preserved, and write the file.
func runBenchmarks(path string, cells bool) error {
	var prev *benchkit.Report
	if data, err := os.ReadFile(path); err == nil {
		if prev, err = benchkit.Load(data); err != nil {
			return err
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	snap, err := benchkit.Measure(benchkit.HotPath(), cells, os.Stdout)
	if err != nil {
		return err
	}
	report := benchkit.Merge(prev, snap)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for _, bm := range benchkit.HotPath() {
		if allocs, ns, ok := report.Delta(bm.Name); ok {
			fmt.Printf("delta %-28s allocs/op %+7.1f%%  ns/op %+7.1f%%\n", bm.Name, allocs, ns)
		}
	}
	fmt.Fprintf(os.Stderr, "libra-bench: wrote perf report to %s\n", path)
	return nil
}

// runElastic is the -elastic mode: the full-scale 50→1000-node diurnal
// replay plus the Libra decision cost at 50/200/1000 nodes, written as
// the PR-8 elasticity acceptance record.
func runElastic(path string) error {
	rep, err := benchkit.MeasureElastic(os.Stdout)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("decision cost 50→1000 nodes: %.1f× (sub-linear: %v); leaked loans %d, capacity violations %d\n",
		rep.DecisionRatio1000, rep.SubLinear, rep.LeakedLoans, rep.CapacityViolations)
	fmt.Fprintf(os.Stderr, "libra-bench: wrote elasticity report to %s\n", path)
	return nil
}

// runLaneScale is the -lanescale mode: measure the event-engine lane
// scaling curve on the endurance scenario and write the JSON record.
func runLaneScale(path string) error {
	rep, err := benchkit.MeasureLanes(os.Stdout)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "libra-bench: wrote lane-scaling report to %s\n", path)
	return nil
}

func main() {
	var (
		common   = cliflags.AddCommon(flag.CommandLine)
		parallel = cliflags.AddParallel(flag.CommandLine)
		lanes    = cliflags.AddLanes(flag.CommandLine)
		exp      = flag.String("exp", "", "run a single experiment by id (e.g. fig6)")
		list     = flag.Bool("list", false, "list experiments and exit")
		quick    = flag.Bool("quick", false, "trimmed sweeps and single repetitions")
		reps     = flag.Int("reps", 0, "repetitions per configuration (0 = default 3)")
		progress = flag.Bool("progress", true, "report per-unit completion on stderr")
		jsonOut  = flag.String("json", "", "benchmark mode: run the hot-path benchmark registry and write the perf report to this file")
		cells    = flag.Bool("cells", true, "benchmark mode: also time a quick-mode run of every experiment cell")
		elastic  = flag.String("elastic", "", "elasticity mode: full-scale figs4 replay plus decision-cost rungs, written to this file")
		laneScal = flag.String("lanescale", "", "lane-scaling mode: endurance replay across engine lane counts, written to this file")
	)
	flag.Parse()
	seed, traceOut := &common.Seed, &common.Trace

	stopProfiles, err := common.StartProfiles()
	if err != nil {
		fmt.Fprintf(os.Stderr, "libra-bench: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "libra-bench: %v\n", err)
		}
	}()

	if *jsonOut != "" {
		if err := runBenchmarks(*jsonOut, *cells); err != nil {
			fmt.Fprintf(os.Stderr, "libra-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *elastic != "" {
		if err := runElastic(*elastic); err != nil {
			fmt.Fprintf(os.Stderr, "libra-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *laneScal != "" {
		if err := runLaneScale(*laneScal); err != nil {
			fmt.Fprintf(os.Stderr, "libra-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := experiments.Options{Seed: *seed, Reps: *reps, Quick: *quick, Parallel: *parallel, EngineLanes: *lanes}
	var col *obs.Collector
	if *traceOut != "" {
		col = obs.NewCollector()
		opts.Trace = col
	}
	run := experiments.All()
	if *exp != "" {
		e, err := experiments.ByID(*exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "libra-bench: %v (try -list)\n", err)
			os.Exit(1)
		}
		run = []experiments.Experiment{e}
	}

	for _, e := range run {
		fmt.Printf("=== %s — %s\n", e.ID, e.Title)
		start := time.Now()
		o := opts
		if *progress {
			id := e.ID
			o.Progress = func(ev experiments.ProgressEvent) {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d units", id, ev.Completed, ev.Total)
				if ev.Completed == ev.Total {
					fmt.Fprint(os.Stderr, "\r                              \r")
				}
			}
		}
		r, err := e.Run(ctx, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "\nlibra-bench: %s: %v\n", e.ID, err)
			if errors.Is(err, context.Canceled) {
				os.Exit(130)
			}
			os.Exit(1)
		}
		r.Render(os.Stdout)
		fmt.Printf("--- %s finished in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if col != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "libra-bench: %v\n", err)
			os.Exit(1)
		}
		if err := col.WriteJSONL(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "libra-bench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "libra-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "libra-bench: wrote trace to %s\n", *traceOut)
	}
}
