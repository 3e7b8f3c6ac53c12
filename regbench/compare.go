package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchDef is the part of BENCHMARK.json the benchmark reads: the metric
// lists its result line must hold, and the bounds the compare mode uses.
type benchDef struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchDef(path string) (benchDef, error) {
	var def benchDef
	data, err := os.ReadFile(path)
	if err != nil {
		return def, err
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return def, fmt.Errorf("%s: %w", path, err)
	}
	if len(def.EndToEnd) == 0 || len(def.PerLayer) == 0 {
		return def, fmt.Errorf("%s: no end_to_end or per_layer metrics", path)
	}
	return def, nil
}

// readReports loads every untraced report in dir, grouped by workload
// and ordered by start time, so the i-th base and head runs form a pair.
func readReports(dir string) (map[string][]report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]report)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace && r.Workload != "" {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Started.Before(rs[j].Started) })
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced reports", dir)
	}
	return out, nil
}

// minPairs is the fewest alternating base/head pairs a gain can rest on.
const minPairs = 10

// verdict applies the rule for claiming a change: improved only when at
// least minPairs pairs were run, the change wins at least nine tenths of
// them, the medians differ by more than the parent's quartile spread, and
// the change fails no more operations than the parent; unresolved when
// the parent's own spread exceeds the bound, unless every change run beats
// every parent run; worse when the median moved the wrong way by more
// than the bound; otherwise within bound. A would-be gain that misses
// only the pair count or the failure condition is reported as such.
func verdict(base, head []float64, lowerBetter bool, bound float64, moreFailures bool) (string, float64) {
	better := func(h, b float64) bool {
		if lowerBetter {
			return h < b
		}
		return h > b
	}
	n := min(len(base), len(head))
	wins := 0
	for i := 0; i < n; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	share := float64(wins) / float64(max(n, 1))
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	mb, mh := median(base), median(head)
	q1, q3 := quartiles(base)
	spread := (q3 - q1) / math.Abs(mb)
	gain := share >= 0.9 && math.Abs(mh-mb) > q3-q1 && better(mh, mb)
	switch {
	case spread > bound && !allBetter:
		return "unresolved", share
	case gain && n < minPairs:
		return fmt.Sprintf("unresolved (%d pairs, need %d)", n, minPairs), share
	case gain && moreFailures:
		return "unresolved (head fails more operations)", share
	case gain:
		return "improved", share
	case better(mb, mh) && math.Abs(mh-mb) > bound*math.Abs(mb):
		return "worse", share
	}
	return "within bound", share
}

// failures sums the runs' failed and attempted operations.
func failures(rs []report) (failed, attempted int) {
	for _, r := range rs {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	return failed, attempted
}

func runCompare(w io.Writer, defPath, baseDir, headDir string) error {
	def, err := loadBenchDef(defPath)
	if err != nil {
		return err
	}
	base, err := readReports(baseDir)
	if err != nil {
		return err
	}
	head, err := readReports(headDir)
	if err != nil {
		return err
	}
	var names []string
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-13s %-20s %-32s %-32s %5s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "pairs", "won", "verdict")
	for _, wl := range names {
		b, h := base[wl], head[wl]
		if len(h) == 0 {
			fmt.Fprintf(w, "%-13s (no head reports)\n", wl)
			continue
		}
		bf, ba := failures(b)
		hf, ha := failures(h)
		for _, m := range def.EndToEnd {
			bv, hv := values(b, m.Name), values(h, m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			v, share := verdict(bv, hv, m.Better == "lower", m.Bound, hf > bf)
			fmt.Fprintf(w, "%-13s %-20s %-32s %-32s %5d %5.0f%%  %s\n", wl, m.Name,
				summary(bv), summary(hv), min(len(bv), len(hv)), 100*share, v)
		}
		fmt.Fprintf(w, "%-13s failed operations: base %d of %d, head %d of %d\n", "", bf, ba, hf, ha)
		fmt.Fprintf(w, "%-13s %s\n", "", stampLine(b[0].Stamp, h[0].Stamp))
	}
	return nil
}

func values(rs []report, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
}

// stampLine flags a comparison across machines, which means nothing.
func stampLine(b, h stamp) string {
	if b.CPUModel != h.CPUModel || b.NProc != h.NProc || b.GoVersion != h.GoVersion {
		return fmt.Sprintf("WARNING: different machines: base %s ×%d %s, head %s ×%d %s",
			b.CPUModel, b.NProc, b.GoVersion, h.CPUModel, h.NProc, h.GoVersion)
	}
	return fmt.Sprintf("same machine: %s ×%d, %s; base %.12s, head %.12s", b.CPUModel, b.NProc, b.GoVersion, b.Commit, h.Commit)
}
