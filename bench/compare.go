package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is BENCHMARK.json: the contract the driver reads, and
// the one place the bounds live.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// maxFailedFracRise is how far the failure share may rise, absolutely,
// before the comparison calls it a regression.
const maxFailedFracRise = 0.001

// compareFiles prints, per workload and end-to-end metric, how far b's
// median is from a's in the metric's worse direction, the bound, and a
// verdict: ok, regressed, or unresolved when either side's own runs
// spread wider than the bound. It reports whether anything regressed.
func compareFiles(w io.Writer, contractPath, pathA, pathB string) (regressed bool, err error) {
	contract, err := readBenchmarkFile(contractPath)
	if err != nil {
		return false, err
	}
	a, err := readOutFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readOutFile(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "# a: %s\n", pathA)
	a.Host.print(w)
	fmt.Fprintf(w, "# b: %s\n", pathB)
	b.Host.print(w)
	if a.Traced || b.Traced {
		return false, fmt.Errorf("-compare reads end-to-end runs; these were traced")
	}

	for _, name := range a.workloadNames() {
		for _, m := range contract.EndToEnd {
			xa, xb := a.series(name, m.Name), b.series(name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%s %s missing\n", name, m.Name)
				regressed = true
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(xa), spread(xb)
			verdict := "ok"
			switch {
			case max(sa, sb) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%s %s a=%s b=%s %s worse=%+.2f%% bound=%.0f%% spread=%.2f%%/%.2f%% n=%d/%d %s\n",
				name, m.Name, formatValue(ma), formatValue(mb), m.Unit,
				worse*100, m.Bound*100, sa*100, sb*100, len(xa), len(xb), verdict)
		}
		fa, fb := a.failedFrac(name), b.failedFrac(name)
		verdict := "ok"
		if fb > fa+maxFailedFracRise {
			verdict = "regressed"
			regressed = true
		}
		fmt.Fprintf(w, "%s failed_frac a=%s b=%s %s\n", name, formatValue(fa), formatValue(fb), verdict)
	}

	// Same workload, same seed: the simulated result must be bit-identical.
	digests := map[string]string{}
	for _, rec := range a.Runs {
		if rec.Digest != "" {
			digests[fmt.Sprintf("%s seed %d", rec.Workload, rec.Seed)] = rec.Digest
		}
	}
	for _, rec := range append(a.Runs, b.Runs...) {
		if !rec.Correct {
			fmt.Fprintf(w, "%s seed %d incorrect: %v\n", rec.Workload, rec.Seed, append(rec.Violations, rec.Invalid...))
			regressed = true
		}
	}
	for _, rec := range b.Runs {
		key := fmt.Sprintf("%s seed %d", rec.Workload, rec.Seed)
		if want, ok := digests[key]; ok && want != rec.Digest {
			fmt.Fprintf(w, "%s digest differs: the simulated result changed\n", key)
			regressed = true
		}
	}
	return regressed, nil
}

// failedFrac is failed over attempted across a file's runs of a workload.
func (f outFile) failedFrac(workload string) float64 {
	var failed, attempted int64
	for _, rec := range f.Runs {
		if rec.Workload == workload {
			failed += rec.Failed
			attempted += rec.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
