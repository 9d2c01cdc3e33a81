// Command libra-sim runs one serverless workload through a chosen
// platform variant on a chosen testbed and prints the metric report.
//
// Usage:
//
//	libra-sim [-variant libra] [-testbed single] [-algorithm Libra]
//	          [-nodes N] [-schedulers K] [-rpm R] [-invocations N]
//	          [-threshold 0.8] [-alpha 0.9] [-seed 42]
//	          [-nodegroup min:desired:max] [-scale-backlog-hi N] [-scale-util-hi F]
//	          [-compare] [-json] [-replay file.json] [-trace out.jsonl]
//	          [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// With -compare, all six §8.3 variants run on the same workload.
// -trace writes the invocation-lifecycle trace (one JSON event per line,
// DESIGN.md §6e) of every run to the given file. -cpuprofile and
// -memprofile cover the runs only, not workload generation (`make prof`).
package main

import (
	"flag"
	"fmt"
	"os"

	"libra/internal/cliflags"
	"libra/internal/core"
	"libra/internal/function"
	"libra/internal/obs"
	"libra/internal/trace"
)

func main() {
	var (
		common      = cliflags.AddCommon(flag.CommandLine)
		plat        = cliflags.AddPlatform(flag.CommandLine, "libra", "single")
		flt         = cliflags.AddFaults(flag.CommandLine)
		scl         = cliflags.AddScale(flag.CommandLine)
		lanes       = cliflags.AddLanes(flag.CommandLine)
		rpm         = flag.Float64("rpm", 120, "workload request rate (requests/minute)")
		invocations = flag.Int("invocations", 165, "workload size")
		compare     = flag.Bool("compare", false, "run all six platform variants")
		jsonOut     = flag.Bool("json", false, "print reports as JSON")
		replayFile  = flag.String("replay", "", "replay a workload file produced by libra-trace instead of generating one")
		mixSkew     = flag.Float64("mix-skew", 0, "Zipf skew of the function mix (0 = uniform)")
	)
	flag.Parse()
	traceOut := &common.Trace

	var set trace.Set
	if *replayFile != "" {
		data, err := os.ReadFile(*replayFile)
		if err != nil {
			fatal(err)
		}
		set, err = trace.Decode(data)
		if err != nil {
			fatal(err)
		}
	} else if *mixSkew > 0 {
		set = trace.GenerateMix("cli", trace.ZipfMix(function.Apps(), *mixSkew), *invocations, *rpm, common.Seed)
	} else {
		set = trace.Generate("cli", function.Apps(), *invocations, *rpm, common.Seed)
	}

	cfg := plat.CoreConfig(common.Seed)
	cfg.Faults = flt.Config()
	autoscale, err := scl.Config()
	if err != nil {
		fatal(err)
	}
	cfg.Autoscale = autoscale
	cfg.EngineLanes = *lanes

	var rec *obs.Recorder
	if *traceOut != "" {
		rec = obs.NewRecorder()
		cfg.Tracer = rec
	}

	stopProfiles, err := common.StartProfiles()
	if err != nil {
		fatal(err)
	}
	var reports []*core.Report
	if *compare {
		reps, err := core.Compare(cfg, set)
		if err != nil {
			fatal(err)
		}
		reports = reps
	} else {
		rep, err := core.Run(cfg, set)
		if err != nil {
			fatal(err)
		}
		reports = []*core.Report{rep}
	}
	if err := stopProfiles(); err != nil {
		fatal(err)
	}

	for _, rep := range reports {
		if *jsonOut {
			data, err := rep.JSON()
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(data))
		} else {
			fmt.Println(rep)
		}
	}

	if rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteJSONL(f, rec.Events()); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "libra-sim: wrote %d trace events to %s\n", rec.Len(), *traceOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "libra-sim:", err)
	os.Exit(1)
}
