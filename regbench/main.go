// Command regbench is the repository's end-to-end benchmark. It drives
// the simulator and its service from outside, through their public Go
// API, on three workloads:
//
//   - single-run: serial sim.ExecuteWith calls, 200k instructions each,
//     one per scheme family, each pass on a fresh sim.WorkloadCache;
//   - service-cold: two closed-loop clients send blocks of seeded sweep
//     and explore requests to serve.New on a loopback listener, one block
//     per generation, each generation on a fresh service and empty store;
//   - service-warm: the same blocks replayed over a filled store,
//     restarting the service every generation, with zero simulations.
//
// Host-time metrics are taken at a reference speed (calib.go), which
// divides out the speed changes of the shared host.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash regbench/run.sh --workload single-run --seed 1 --seconds 10 --trace 0
//	bash regbench/run.sh -compare -base DIR -head DIR
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// With --trace 0 its metrics are exactly BENCHMARK.json's end-to-end ones,
// which every workload measures; with --trace 1 a separately traced run
// gives exactly its per-layer ones and writes its spans as a Chrome trace.
// The lines before it list these and the workload's own further metrics.
// Every run also writes a full report, stamped with the machine and
// commit, under <workdir>/reports for the compare mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one workload run's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string // this run's private directory (stores, documents)
	checker string // path to the cmd/checkresults binary
	scale   uint64 // divides every instruction budget; 1 outside tests

	digestsOut string // single-run: write the warm-up pass's digests here
}

func (c config) insts(n uint64) uint64 { return max(n/max(c.scale, 1), 1) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome collects a workload's operations, failed checks and metrics.
type outcome struct {
	attempted int
	failed    int
	notes     []string
	metrics   map[string]metric
	spans     []span
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

// fail records one failed check as one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 20 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// set records a metric. A non-finite value (a percentile reached by a
// failed request) is written as the largest float, which JSON can carry.
func (o *outcome) set(name string, v float64, unit string) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		v = math.MaxFloat64
	}
	o.metrics[name] = metric{v, unit}
}

// setPctIfEnough sets a percentile metric of the workload's own when the
// run has the samples for it, and leaves it out otherwise.
func (o *outcome) setPctIfEnough(name string, xs []float64, p float64, unit string) {
	if v, err := percentile(xs, p); err == nil {
		o.set(name, v, unit)
	}
}

// setPct sets a percentile metric, or records the refusal as a failed
// check when the run has too few samples for it.
func (o *outcome) setPct(name string, xs []float64, p float64, unit string) {
	v, err := percentile(xs, p)
	if err != nil {
		o.fail("%s: %v", name, err)
		return
	}
	o.set(name, v, unit)
}

var workloads = map[string]func(cfg config) (*outcome, error){
	"single-run":   runSingle,
	"service-cold": runServiceCold,
	"service-warm": runServiceWarm,
}

// report is the full record of one run, kept for the compare mode.
type report struct {
	Workload string               `json:"workload"`
	Trace    bool                 `json:"trace"`
	Seconds  float64              `json:"seconds"`
	Started  time.Time            `json:"started"`
	Stamp    stamp                `json:"stamp"`
	Result   result               `json:"result"`
	All      map[string]metric    `json:"all_metrics"` // the result line's and the workload's own
	Notes    []string             `json:"notes,omitempty"`
	Layers   map[string]layerTime `json:"layers,omitempty"`
	TraceDoc string               `json:"trace_doc,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("regbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "single-run | service-cold | service-warm")
		seed     = fs.Int64("seed", defaultSeed, "workload seed: picks benchmarks, schemes and requests")
		seconds  = fs.Float64("seconds", 10, "how long the timed phase measures")
		trace    = fs.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace")
		root     = fs.String("root", ".", "repository checkout the benchmark was built from")
		workdir  = fs.String("workdir", ".bench_build", "directory for run outputs")
		checker  = fs.String("checkresults", "", "path to the cmd/checkresults binary")
		digests  = fs.String("write-digests", "", "single-run: write the pass's per-point digests to this file")
		compare  = fs.Bool("compare", false, "compare two sets of reports instead of running")
		base     = fs.String("base", "", "compare: directory of the parent's reports")
		head     = fs.String("head", "", "compare: directory of the change's reports")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if err := runCompare(stdout, filepath.Join(*root, "BENCHMARK.json"), *base, *head); err != nil {
			fmt.Fprintln(stderr, "regbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "regbench: need -workload %s, -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	if *checker == "" {
		fmt.Fprintln(stderr, "regbench: -checkresults is required (run.sh builds it)")
		return 2
	}
	def, err := loadBenchDef(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "regbench:", err)
		return 1
	}
	started := time.Now()
	runDir := filepath.Join(*workdir, "runs", fmt.Sprintf("%s-s%d-t%d-%d", *workload, *seed, *trace, started.UnixNano()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "regbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: runDir,
		checker: *checker, scale: 1, digestsOut: *digests}

	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "regbench:", err)
		return 1
	}
	listed := def.EndToEnd
	if cfg.trace {
		listed = def.PerLayer
	}
	line, err := resultMetrics(out.metrics, listed)
	if err != nil {
		fmt.Fprintf(stderr, "regbench: %s: %v\n", *workload, err)
		return 1
	}
	rep := report{Workload: *workload, Trace: cfg.trace, Seconds: *seconds, Started: started,
		Stamp: newStamp(*root, *seed), Notes: out.notes, All: out.metrics,
		Result: result{Correct: out.failed == 0, Attempted: max(out.attempted, 1),
			Failed: min(out.failed, max(out.attempted, 1)), Metrics: line}}
	if cfg.trace {
		rep.Layers = selfTimes(out.spans)
		rep.TraceDoc = filepath.Join(*workdir, "traces", filepath.Base(runDir)+".json")
		if err := os.MkdirAll(filepath.Dir(rep.TraceDoc), 0o755); err == nil {
			err = writeChrome(rep.TraceDoc, out.spans)
		}
		if err != nil {
			fmt.Fprintln(stderr, "regbench: trace:", err)
			return 1
		}
	}
	if err := writeReport(*workdir, filepath.Base(runDir), rep); err != nil {
		fmt.Fprintln(stderr, "regbench:", err)
		return 1
	}
	printReport(stdout, stderr, rep)
	return 0
}

// resultMetrics picks the result line's metrics: every listed one, which
// the workload must have measured with the listed unit.
func resultMetrics(all map[string]metric, listed []benchMetric) (map[string]metric, error) {
	line := make(map[string]metric, len(listed))
	for _, m := range listed {
		v, ok := all[m.Name]
		if !ok {
			return nil, fmt.Errorf("no %s measured", m.Name)
		}
		if v.Unit != m.Unit {
			return nil, fmt.Errorf("%s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		}
		line[m.Name] = v
	}
	return line, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func writeReport(workdir, name string, rep report) error {
	dir := filepath.Join(workdir, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644)
}

// printReport writes the human-readable lines, then the result line last.
func printReport(stdout, stderr io.Writer, rep report) {
	st, _ := json.Marshal(rep.Stamp)
	fmt.Fprintf(stdout, "stamp %s\n", st)
	for _, n := range rep.Notes {
		fmt.Fprintf(stderr, "regbench: check failed: %s\n", n)
	}
	names := make([]string, 0, len(rep.All))
	for n := range rep.All {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.All[n]
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if rep.TraceDoc != "" {
		layers := make([]string, 0, len(rep.Layers))
		for n := range rep.Layers {
			layers = append(layers, n)
		}
		sort.Strings(layers)
		fmt.Fprintf(stdout, "%-24s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
		for _, n := range layers {
			l := rep.Layers[n]
			fmt.Fprintf(stdout, "%-24s %8d %12.3f %12.3f\n", n, l.Count, l.TotalMS, l.SelfMS)
		}
		fmt.Fprintf(stdout, "trace %s\n", rep.TraceDoc)
	}
	line, _ := json.Marshal(rep.Result)
	fmt.Fprintf(stdout, "%s\n", line)
}
