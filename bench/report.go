package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"

	"libra/internal/metrics"
)

// result collects one workload run: measurements, correctness
// violations, and the notes a reader needs to trust the numbers (sample
// counts, generator lateness).
type result struct {
	workload   string
	env        env
	v          values
	attempted  int64
	failed     int64
	digest     string
	violations []string // the program's output was wrong
	invalid    []string // the measurement cannot be trusted (generator late, too many connections)
	notes      []string
	spans      []metrics.InvBreakdown
}

func newResult(workload string, e env) *result {
	return &result{workload: workload, env: e, v: values{}}
}

func (r *result) violatef(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *result) invalidf(format string, args ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runRecord is one run as written to -out and printed.
type runRecord struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Digest     string                 `json:"digest,omitempty"`
	Violations []string               `json:"violations,omitempty"`
	Invalid    []string               `json:"invalid,omitempty"`
	Notes      []string               `json:"notes,omitempty"`
	Metrics    []namedValue           `json:"metrics"`
	Spans      []metrics.InvBreakdown `json:"spans,omitempty"`
}

// record lays the run out against the catalogue of the pass it ran.
func (r *result) record() (runRecord, error) {
	defs, required := endToEnd, true
	if r.env.traced {
		defs, required = perLayer, false
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return runRecord{}, err
		}
		r.v["peak_rss_mb"] = rss
	}
	ms, err := r.v.project(defs, required)
	if err != nil {
		return runRecord{}, fmt.Errorf("%s: %w", r.workload, err)
	}
	if r.attempted < 1 {
		r.violatef("nothing was attempted")
	}
	return runRecord{
		Workload: r.workload, Seed: r.env.seed,
		Correct:   len(r.violations) == 0 && len(r.invalid) == 0,
		Attempted: r.attempted, Failed: r.failed,
		Digest: r.digest, Violations: r.violations, Invalid: r.invalid, Notes: r.notes,
		Metrics: ms, Spans: r.spans,
	}, nil
}

// print writes the run as "workload metric value unit" lines, with notes
// and violations as comments.
func (rec runRecord) print(w io.Writer) {
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "# %s: %s\n", rec.Workload, n)
	}
	for _, m := range rec.Metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", rec.Workload, m.Name, formatValue(m.Value), m.Unit)
	}
	if rec.Digest != "" {
		fmt.Fprintf(w, "# %s: digest %s\n", rec.Workload, rec.Digest)
	}
	for _, v := range rec.Violations {
		fmt.Fprintf(w, "# %s: VIOLATION %s\n", rec.Workload, v)
	}
	for _, v := range rec.Invalid {
		fmt.Fprintf(w, "# %s: INVALID %s\n", rec.Workload, v)
	}
}

func formatValue(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// contractResult is the object on the last line of a -workload run.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rec runRecord) contract() contractResult {
	c := contractResult{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: make(map[string]contractMetric, len(rec.Metrics))}
	for _, m := range rec.Metrics {
		c.Metrics[m.Name] = contractMetric{m.Value, m.Unit}
	}
	return c
}

func (rec runRecord) metric(name string) (float64, bool) {
	for _, m := range rec.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// host says where numbers were taken; timings from different hosts are
// not comparable.
type host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	h := host{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func (h host) print(w io.Writer) {
	fmt.Fprintf(w, "# host: %s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s\n",
		h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.CPUModel, h.Commit)
}

// outFile is the -out document: every run of one invocation.
type outFile struct {
	Host    host        `json:"host"`
	Seconds float64     `json:"seconds"`
	Traced  bool        `json:"traced"`
	Runs    []runRecord `json:"runs"`
}

func (f outFile) write(path string) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readOutFile(path string) (outFile, error) {
	var f outFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// series gathers one metric's values over a file's runs of a workload.
func (f outFile) series(workload, metric string) []float64 {
	var xs []float64
	for _, rec := range f.Runs {
		if rec.Workload != workload {
			continue
		}
		if x, ok := rec.metric(metric); ok {
			xs = append(xs, x)
		}
	}
	return xs
}

func (f outFile) workloadNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, rec := range f.Runs {
		if !seen[rec.Workload] {
			seen[rec.Workload] = true
			names = append(names, rec.Workload)
		}
	}
	return names
}

// printSpreads prints, per workload and metric, the median over the runs
// and the interquartile spread as a share of it — the steadiness figure
// the acceptance procedure compares with each bound.
func (f outFile) printSpreads(w io.Writer) {
	for _, name := range f.workloadNames() {
		for _, m := range f.Runs[0].Metrics {
			xs := f.series(name, m.Name)
			fmt.Fprintf(w, "# spread %s %s median %s %s iqr/median %.4f n=%d\n",
				name, m.Name, formatValue(median(xs)), m.Unit, spread(xs), len(xs))
		}
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles(xs,
// n=4) (the exclusive method), which is what the acceptance procedure
// uses. Fewer than two values have no spread.
func spread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (quartile(3) - quartile(1)) / med
}

// runtimeStats brackets a measured section with runtime.MemStats.
type runtimeStats struct{ m0 runtime.MemStats }

func startRuntimeStats() *runtimeStats {
	s := &runtimeStats{}
	runtime.ReadMemStats(&s.m0)
	return s
}

func (s *runtimeStats) mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs - s.m0.Mallocs
}

func (s *runtimeStats) report(v values) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	v["rt.gc_cycles_n"] = float64(m.NumGC - s.m0.NumGC)
	v["rt.gc_pause_ms"] = float64(m.PauseTotalNs-s.m0.PauseTotalNs) / 1e6
	v["rt.alloc_mb"] = float64(m.TotalAlloc-s.m0.TotalAlloc) / (1 << 20)
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// reference.json holds what was recorded on the builder's host for seeds
// 42 and 7: the replay digests every later run is checked against, and a
// reference number set for orientation.
//
//go:embed reference.json
var referenceJSON []byte

type referenceFile struct {
	Host    host    `json:"host"`
	Seconds float64 `json:"seconds"`
	// Digests[workload][seed] is the SHA-256 of the replay's result at
	// shrink 1.
	Digests map[string]map[string]string `json:"digests"`
	// Reference[seed][workload][metric] is the end-to-end number set.
	Reference map[string]map[string]map[string]float64 `json:"reference"`
}

var reference = sync.OnceValue(func() referenceFile {
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		panic("bench: reference.json: " + err.Error())
	}
	return ref
})

// committedDigest is the digest recorded for a full-size replay of
// workload on e's seed, if one was.
func committedDigest(workload string, e env) (string, bool) {
	if e.shrink != 1 {
		return "", false
	}
	d, ok := reference().Digests[workload][strconv.FormatInt(e.seed, 10)]
	return d, ok
}
