package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

var testSeeds = []int64{1, 2, 3, 42, -7, 1 << 40}

func TestSinglePlanDeterministicAndStratified(t *testing.T) {
	for _, seed := range testSeeds {
		a, err := singlePlan(seed, singleInsts)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := singlePlan(seed, singleInsts)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: plan differs between two calls", seed)
		}
		fams := make(map[string]bool)
		classes := make(map[string]int)
		for _, p := range a {
			fams[p.Family.Key] = true
			if !contains(classBenches[p.Family.Class], p.Bench) {
				t.Errorf("seed %d: %s runs %s, outside class %s", seed, p.Family.Key, p.Bench, p.Family.Class)
			}
			classes[p.Family.Class]++
		}
		if len(fams) != len(families) {
			t.Errorf("seed %d: plan covers %d of %d scheme families", seed, len(fams), len(families))
		}
		for c := range classBenches {
			if classes[c] == 0 {
				t.Errorf("seed %d: no %s benchmark in the pass", seed, c)
			}
		}
	}
}

func TestServiceStreamDeterministicAndCovering(t *testing.T) {
	if blockLen != len(sweepShapes)+1 || refRequests%blockLen != 0 {
		t.Fatalf("a block is %d requests, but holds %d sweep shapes and one exploration; the prefix is %d requests",
			blockLen, len(sweepShapes), refRequests)
	}
	for _, seed := range testSeeds {
		a, err := serviceStream(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := serviceStream(seed, 1)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: stream differs between two calls", seed)
		}
		kinds := make(map[string]int)
		fams := make(map[string]bool)
		modes := make(map[string]bool)
		seen := make(map[string]bool)
		for _, r := range a[:400] {
			kinds[r.Kind]++
			if r.Kind != "sweep" {
				continue
			}
			for _, f := range r.Families {
				fams[f] = true
			}
			modes[map[bool]string{true: "threads"}[r.Threads > 1]+map[bool]string{true: "intervals"}[r.Interval > 1]] = true
			var req struct {
				Benches []string `json:"benches"`
				Schemes []string `json:"schemes"`
				Insts   uint64   `json:"insts"`
			}
			if err := json.Unmarshal(r.Body, &req); err != nil {
				t.Fatal(err)
			}
			fresh := false
			for _, bench := range req.Benches {
				for _, s := range req.Schemes {
					k := pointKey(bench, s, req.Insts, sweepMode{r.Threads, r.Interval})
					fresh = fresh || !seen[k]
					seen[k] = true
				}
			}
			if !fresh {
				t.Errorf("seed %d: sweep %d brings no new point", seed, r.Idx)
			}
		}
		if kinds["sweep"] == 0 || kinds["explore"] == 0 {
			t.Errorf("seed %d: request kinds %v, want sweeps and explorations", seed, kinds)
		}
		for _, f := range families {
			if !fams[f.Key] {
				t.Errorf("seed %d: no sweep runs scheme family %s", seed, f.Key)
			}
		}
		for _, m := range []string{"", "threads", "intervals"} {
			if !modes[m] {
				t.Errorf("seed %d: no sweep in mode %q", seed, m)
			}
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		p  float64
		ok int // smallest sample count accepted
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		xs := make([]float64, c.ok)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, err := percentile(xs[:c.ok-1], c.p); err == nil {
			t.Errorf("p%g of %d samples accepted, want refused", c.p*100, c.ok-1)
		}
		if _, err := percentile(xs, c.p); err != nil {
			t.Errorf("p%g of %d samples refused: %v", c.p*100, c.ok, err)
		}
	}
	v, _ := percentile([]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}, 0.5)
	if v != 11 {
		t.Errorf("p50 of 1..21 = %g, want 11", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %g, %g, want 0.75, 2.25", q1, q3)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "child", Start: 2 * ms, End: 5 * ms},
		{ID: 3, Parent: 1, Name: "child", Start: 4 * ms, End: 7 * ms},
		{ID: 4, Parent: 1, Name: "child", Start: 9 * ms, End: 12 * ms}, // clipped to 9..10
	}
	got := selfTimes(spans)
	if p := got["parent"]; p.TotalMS != 10 || p.SelfMS != 4 {
		t.Errorf("parent = %+v, want total 10 self 4", p)
	}
	if c := got["child"]; c.Count != 3 || c.SelfMS != 9 {
		t.Errorf("child = %+v, want 3 spans, self 9", c)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b + d
		}
		return out
	}
	for _, c := range []struct {
		head         []float64
		lower        bool
		moreFailures bool
		want         string
	}{
		{shift(-10), true, false, "improved"},
		{shift(+10), false, false, "improved"},
		{shift(+20), true, false, "worse"},
		{shift(+1), true, false, "within bound"},
		{shift(-10), true, true, "unresolved (head fails more operations)"},
	} {
		if got, _ := verdict(base, c.head, c.lower, 0.1, c.moreFailures); got != c.want {
			t.Errorf("verdict(head %+g, lower %v, more failures %v) = %s, want %s",
				c.head[0]-base[0], c.lower, c.moreFailures, got, c.want)
		}
	}
	// Nine pairs are too few for a gain, however clear.
	if got, _ := verdict(base[:9], shift(-10)[:9], true, 0.1, false); got != "unresolved (9 pairs, need 10)" {
		t.Errorf("nine pairs: verdict %s, want unresolved for too few pairs", got)
	}
	noisy := []float64{50, 150, 60, 140, 100, 90, 110, 70, 130, 100}
	if got, _ := verdict(noisy, shift(-5), true, 0.1, false); got != "unresolved" {
		t.Errorf("noisy parent: verdict %s, want unresolved", got)
	}
}

// buildChecker builds cmd/checkresults into a temporary directory.
func buildChecker(t *testing.T) string {
	t.Helper()
	checker := filepath.Join(t.TempDir(), "checkresults")
	build := exec.Command("go", "build", "-o", checker, "regcache/cmd/checkresults")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build checkresults: %v\n%s", err, out)
	}
	return checker
}

// TestDocCheckCountsRejectedDocuments feeds the document checks a sweep
// whose cache counters do not add up, and a refused request.
func TestDocCheckCountsRejectedDocuments(t *testing.T) {
	if testing.Short() {
		t.Skip("builds checkresults")
	}
	good := []byte(`{"schema_version":3,"generator":"regsimd","runs":[{"scheme":{"name":"use-64x2-filtered","kind":"cache"},"bench":"gzip","insts":100,"cycles":50,"retired":100,"ipc":2,"cache":{"reads":10,"hits":7,"misses":3,"miss_filtered":1,"miss_capacity":1,"miss_conflict":1}}]}`)
	bad := []byte(strings.Replace(string(good), `"hits":7`, `"hits":6`, 1))
	sweep := func(idx int, body []byte, status int) reply {
		return reply{Req: &request{Idx: idx, Kind: "sweep", Points: 1}, Status: status, Body: body}
	}
	out := newOutcome()
	c := newDocCheck(t.TempDir(), buildChecker(t))
	for _, rep := range []reply{sweep(0, good, 200), sweep(1, bad, 200), sweep(2, nil, 429)} {
		c.add(out, &rep)
	}
	if err := c.run(out); err != nil {
		t.Fatal(err)
	}
	if out.failed != 2 {
		t.Errorf("%d failed checks, want 2 (a bad document, a refusal): %v", out.failed, out.notes)
	}
}

func TestSameBodyIgnoresOnlyTimings(t *testing.T) {
	fill := []byte(`{"schema_version":3,"generator":"regsimd","wall_seconds":0,"runs":[{"scheme":{"name":"a","kind":"cache"},"bench":"gzip","insts":1,"cycles":1,"retired":1,"ipc":1}]}`)
	traced := []byte(strings.Replace(string(fill), `"ipc":1}`, `"ipc":1,"timing":{"outcome":"store","queue_wait_ms":0.1}}`, 1))
	r := &request{Kind: "sweep"}
	if err := sameBody(reply{Req: r, Status: 200, Body: fill}, fill); err != nil {
		t.Errorf("identical body: %v", err)
	}
	if err := sameBody(reply{Req: r, Status: 200, Body: traced, Traced: true}, fill); err != nil {
		t.Errorf("traced body with timings: %v", err)
	}
	if err := sameBody(reply{Req: r, Status: 200, Body: traced}, fill); err == nil {
		t.Error("untraced body with timings accepted")
	}
	changed := []byte(strings.Replace(string(traced), `"cycles":1`, `"cycles":2`, 1))
	if err := sameBody(reply{Req: r, Status: 200, Body: changed, Traced: true}, fill); err == nil {
		t.Error("traced body with a changed counter accepted")
	}
}

// benchMetrics reads BENCHMARK.json's metric names and units.
func benchMetrics(t *testing.T) (e2e, layer map[string]string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	e2e, layer = make(map[string]string), make(map[string]string)
	for _, m := range def.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// ownMetrics lists each workload's metrics beyond BENCHMARK.json's lists,
// untraced and traced, as README.md documents them. Percentiles a short
// run lacks the samples for may be missing.
var ownMetrics = map[string][2][]string{
	"single-run": {{"minsts_per_s_p50", "ref_kernel_ms"}, nil},
	"service-cold": {
		{"minsts_per_s_p50", "ref_kernel_ms", "sim_minsts_per_s_ref", "sweep_s_p50", "sweep_s_p90", "explore_s_p50"},
		{"sim.queue_wait_ms_p50", "sim.sim_ms_p50", "sim.resimulated_frac", "sim.coalesced_frac",
			"sim.store_hit_frac", "explore.evaluations", "explore.resim_frac"},
	},
	"service-warm": {
		{"minsts_per_s_p50", "ref_kernel_ms", "requests_per_s_ref", "sweep_s_p50", "sweep_s_p90", "sweep_s_p99", "explore_s_p50"},
		{"sim.resimulated_frac", "sim.coalesced_frac", "sim.store_hit_frac", "store.lookup_ms_p50",
			"store.lookup_ms_p99", "store.open_ms", "store.live_bytes", "serve.self_ms_p50",
			"serve.response_kb_p50", "explore.evaluations", "explore.resim_frac"},
	},
}

// TestTinyRunPrintsEveryMetric runs all three workloads at a small share
// of their instruction budgets, untraced and traced, and checks that each
// measures every metric BENCHMARK.json lists for the mode, with its unit,
// that anything else it prints is documented, and that every output check
// passes.
func TestTinyRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service")
	}
	checker := buildChecker(t)
	def, err := loadBenchDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seconds := 2.5
	if raceEnabled {
		seconds = 8
	}
	for wl, own := range ownMetrics {
		for trace, listed := range [][]benchMetric{def.EndToEnd, def.PerLayer} {
			t.Run(wl+map[int]string{0: "", 1: "/traced"}[trace], func(t *testing.T) {
				// single-run at 10k instructions keeps a traced pass long
				// enough for its 95% span-coverage check to be meaningful;
				// under the race detector 4k do, and leave time for a
				// few passes.
				scale := uint64(100)
				if wl == "single-run" {
					scale = 20
					if raceEnabled {
						scale = 50
					}
				}
				cfg := config{seed: 3, seconds: seconds, trace: trace == 1, workdir: t.TempDir(), checker: checker, scale: scale}
				out, err := workloads[wl](cfg)
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 || out.attempted == 0 {
					t.Fatalf("%d of %d operations failed: %v", out.failed, out.attempted, out.notes)
				}
				if _, err := resultMetrics(out.metrics, listed); err != nil {
					t.Error(err)
				}
				documented := make(map[string]bool)
				for _, m := range listed {
					documented[m.Name] = true
				}
				for _, n := range own[trace] {
					documented[n] = true
				}
				for n, m := range out.metrics {
					if !documented[n] {
						t.Errorf("%s: printed but not documented", n)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: value %g", n, m.Value)
					}
				}
				if trace == 0 {
					for _, m := range listed {
						if out.metrics[m.Name].Value == 0 {
							t.Errorf("end-to-end %s reads 0", m.Name)
						}
					}
				}
				if trace == 1 && len(out.spans) == 0 {
					t.Error("traced run recorded no spans")
				}
			})
		}
	}
}

// TestTwoLevelDeadlockBoundary pins twoLevelDeadlocks, the one kind of
// point the service stream leaves out, to the program's behaviour on both
// sides of it: the schemes it names must still fail, and the smallest
// ones beyond it must run. Once the program fixes the deadlock, or
// refuses these schemes up front, this test fails: then the stream should
// ask for them like any other point.
func TestTwoLevelDeadlockBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("each deadlock takes a million simulated cycles")
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	svc, err := startService(filepath.Join(t.TempDir(), "store"), hc)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.stop()
	for _, c := range []struct{ l1, threads int }{{64, 1}, {72, 1}, {128, 2}, {160, 2}} {
		req := map[string]any{"benches": []string{"gzip"}, "schemes": []string{fmt.Sprintf("twolevel:%d:2", c.l1)}, "insts": 2000}
		if c.threads > 1 {
			req["threads"] = c.threads
		}
		body, _ := json.Marshal(req)
		rep := send(hc, svc.url, &request{Kind: "sweep", Body: body}, false)
		if deadlocks := twoLevelDeadlocks(c.l1, c.threads); rep.ok() == deadlocks {
			t.Errorf("twolevel L1 %d at %d threads: status %d (%.120s), but twoLevelDeadlocks says %v; "+
				"if the program now handles it, let the stream draw it", c.l1, c.threads, rep.Status, rep.Body, deadlocks)
		}
	}
}
