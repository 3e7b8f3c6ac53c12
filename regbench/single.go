package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"regcache/internal/core"
	"regcache/internal/pipeline"
	"regcache/internal/prog"
	"regcache/internal/sim"
)

// singleInsts is the per-run budget of the single-run workload: the
// simulator's default, what a regsim invocation simulates.
const singleInsts = 200_000

const (
	setupRepeats = 51 // fresh workload caches timed for setup_s
	sidePasses   = 3  // traced passes of a service workload's side pass
)

// Benchmark classes by profile (internal/prog/profiles.go). Host cost per
// simulated instruction differs about fourfold between them, so every pass
// draws the same number of runs from each class.
const (
	classMemory  = "memory-bound" // mcf: pointer chasing over a 4 MiB footprint
	classBranchy = "branchy"      // data-dependent branches and call-dense code
	classLoop    = "loop-heavy"   // long-trip predictable loops
)

var classBenches = map[string][]string{
	classMemory:  {"mcf"},
	classBranchy: {"vpr", "parser", "vortex", "gcc"},
	classLoop:    {"gzip", "bzip2", "gap"},
}

// family is one scheme family of the single-run pass. Each family is tied
// to one benchmark class, so the seed varies which benchmark of the class
// each family meets while the pass's cost mix stays fixed.
type family struct {
	Key     string // metric suffix, e.g. pipeline.ns_per_cycle.use_t4
	Spec    string // sim.ParseSchemeSpec grammar
	Threads int
	Class   string
}

var families = []family{
	{"mono", "mono:3", 0, classLoop},
	{"use", "use:64x2:filtered", 0, classBranchy},
	{"lru", "lru:64x2", 0, classLoop},
	{"nb", "nb:64x2", 0, classBranchy},
	{"twolevel", "twolevel:96:2", 0, classMemory},
	{"oracle", "use:64x2:filtered:oracle", 0, classBranchy},
	{"port", "port:64x2:p2", 0, classLoop},
	{"use_t4", "use:64x2:filtered", 4, classMemory},
}

// point is one planned simulation.
type point struct {
	Family family
	Bench  string
	Scheme sim.Scheme
	Opts   sim.Options
}

// singlePlan is the seeded pass: one benchmark per family, drawn without
// replacement from the family's class where the class allows, run in a
// seeded order.
func singlePlan(seed int64, insts uint64) ([]point, error) {
	rng := rand.New(rand.NewSource(seed))
	pools := make(map[string][]string)
	for _, c := range []string{classMemory, classBranchy, classLoop} {
		b := append([]string(nil), classBenches[c]...)
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		pools[c] = b
	}
	taken := make(map[string]int)
	plan := make([]point, 0, len(families))
	for _, f := range families {
		pool := pools[f.Class]
		bench := pool[taken[f.Class]%len(pool)]
		taken[f.Class]++
		sc, err := sim.ParseSchemeSpec(f.Spec)
		if err != nil {
			return nil, fmt.Errorf("family %s: %w", f.Key, err)
		}
		plan = append(plan, point{Family: f, Bench: bench, Scheme: sc,
			Opts: sim.Options{Insts: insts, Threads: f.Threads}})
	}
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan, nil
}

// digest identifies a point's simulated results: the SHA-256 of its
// schema RunRecord, which holds every counter the results files publish.
func digest(p point, res pipeline.Result) string {
	data, _ := json.Marshal(sim.NewRunRecord(p.Bench, p.Scheme, p.Opts, res))
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// committedDigests pins the default seed's pass at the full budget.
//
//go:embed testdata/single-run-seed1.json
var committedDigests []byte

const defaultSeed = 1

type digestEntry struct {
	Family string `json:"family"`
	Bench  string `json:"bench"`
	Digest string `json:"digest"`
}

// pointRun is one executed point with its host-side measurements.
type pointRun struct {
	Res        pipeline.Result
	Digest     string
	ExecNS     int64         // sim.ExecuteWith wall time
	CPU        time.Duration // process CPU time during the call
	Ref        float64       // untraced passes: refTime() right after the call
	AllocBytes uint64        // traced passes only
}

// passRun is one pass over the plan.
type passRun struct {
	Points  []pointRun
	Wall    time.Duration
	Retired uint64
	Traced  bool
	Ref0    float64       // untraced passes: refTime() before the first call
	Covered time.Duration // wall time under the pass's layer spans
	GCs     uint32
	PauseNS uint64
	GenNS   int64 // prog.generate span time
	OracNS  int64 // pipeline.oracle span time
}

// runPass executes the plan once on a fresh workload cache, as a regsim
// invocation does. A non-nil tracer wraps each layer call in a span and
// reads memory statistics around the simulations.
func runPass(plan []point, tr *tracer) (passRun, error) {
	var pr passRun
	pr.Traced = tr != nil
	var ms0 runtime.MemStats
	if pr.Traced {
		runtime.ReadMemStats(&ms0)
	}
	wc := sim.NewWorkloadCache()
	if !pr.Traced {
		pr.Ref0 = refTime()
	}
	var refWall time.Duration // kernel time, left out of the pass's
	root := tr.start("single.pass", 0, "", 0)
	t0 := time.Now()
	for _, p := range plan {
		if pr.Traced {
			id := tr.start("prog.generate", root, "", 0)
			for tid := 0; tid < max(p.Opts.Threads, 1); tid++ {
				if _, err := wc.ThreadProgram(p.Bench, tid); err != nil {
					return pr, err
				}
			}
			d := tr.end(id)
			pr.GenNS += int64(d)
			pr.Covered += d
			if p.Scheme.OracleUses {
				id := tr.start("pipeline.oracle", root, "", 0)
				if _, err := wc.Oracle(p.Bench, p.Opts.Insts); err != nil {
					return pr, err
				}
				d := tr.end(id)
				pr.OracNS += int64(d)
				pr.Covered += d
			}
		}
		// The span includes the traced pass's memory accounting; ExecNS
		// times the call alone.
		var before, after runtime.MemStats
		id := tr.start("sim.execute", root, "", 0)
		if pr.Traced {
			runtime.ReadMemStats(&before)
		}
		c, s := cpuTime(), time.Now()
		res, err := sim.ExecuteWith(wc, p.Bench, p.Scheme, p.Opts)
		execNS, cpu := time.Since(s).Nanoseconds(), cpuTime()-c
		if pr.Traced {
			runtime.ReadMemStats(&after)
		}
		pr.Covered += tr.end(id)
		if err != nil {
			return pr, fmt.Errorf("%s on %s: %w", p.Family.Spec, p.Bench, err)
		}
		pt := pointRun{Res: res, ExecNS: execNS, CPU: cpu, AllocBytes: after.TotalAlloc - before.TotalAlloc}
		if !pr.Traced {
			r0 := time.Now()
			pt.Ref = refTime()
			refWall += time.Since(r0)
		}
		pr.Points = append(pr.Points, pt)
		pr.Retired += res.Stats.Retired
	}
	pr.Wall = time.Since(t0) - refWall
	tr.end(root)
	if pr.Traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		pr.GCs = ms1.NumGC - ms0.NumGC
		pr.PauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	}
	for i := range pr.Points {
		pr.Points[i].Digest = digest(plan[i], pr.Points[i].Res)
	}
	return pr, nil
}

// checkPoint applies the conservation laws every result must obey.
func checkPoint(p point, r pipeline.Result) error {
	if r.Stats.Retired < p.Opts.Insts {
		return fmt.Errorf("retired %d < budget %d", r.Stats.Retired, p.Opts.Insts)
	}
	c := r.Cache
	if c.Hits+c.Misses != c.Reads {
		return fmt.Errorf("cache hits %d + misses %d != reads %d", c.Hits, c.Misses, c.Reads)
	}
	var split uint64
	for _, m := range c.MissBy {
		split += m
	}
	if split != c.Misses {
		return fmt.Errorf("miss classes sum to %d, misses %d", split, c.Misses)
	}
	if p.Opts.Threads > 1 {
		if len(r.Threads) != p.Opts.Threads {
			return fmt.Errorf("%d thread blocks for %d threads", len(r.Threads), p.Opts.Threads)
		}
		var ret, reads, hits, misses, stalls uint64
		for _, t := range r.Threads {
			ret += t.Retired
			reads += t.CacheReads
			hits += t.CacheHits
			misses += t.CacheMisses
			stalls += t.PortConflictStalls
		}
		if ret != r.Stats.Retired || reads != c.Reads || hits != c.Hits || misses != c.Misses || stalls != r.Stats.PortConflictStalls {
			return fmt.Errorf("per-thread counters (retired %d reads %d hits %d misses %d stalls %d) do not sum to the totals (%d %d %d %d %d)",
				ret, reads, hits, misses, stalls, r.Stats.Retired, c.Reads, c.Hits, c.Misses, r.Stats.PortConflictStalls)
		}
	}
	return nil
}

// setupSingle times what a regsim invocation pays before its first cycle:
// a fresh workload cache with the pass's programs generated. It returns
// the median of setupRepeats tries, in seconds at the reference speed,
// each from a collected heap so no try pays for another's garbage.
func setupSingle(plan []point) (float64, error) {
	var xs []float64
	before := refTime()
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		wc := sim.NewWorkloadCache()
		for _, p := range plan {
			for tid := 0; tid < max(p.Opts.Threads, 1); tid++ {
				if _, err := wc.ThreadProgram(p.Bench, tid); err != nil {
					return 0, err
				}
			}
		}
		d := time.Since(t0).Seconds()
		after := refTime()
		xs = append(xs, atRef(d, before, after))
		before = after
	}
	return median(xs), nil
}

func runSingle(cfg config) (*outcome, error) {
	out := newOutcome()
	insts := cfg.insts(singleInsts)
	plan, err := singlePlan(cfg.seed, insts)
	if err != nil {
		return nil, err
	}
	setup, err := setupSingle(plan)
	if err != nil {
		return nil, err
	}
	// The warm-up pass is untimed; its digests are the reference every
	// timed pass must reproduce.
	warm, err := runPass(plan, nil)
	if err != nil {
		return nil, err
	}
	ref := make([]string, len(plan))
	for i, pt := range warm.Points {
		ref[i] = pt.Digest
	}
	if cfg.digestsOut != "" {
		if err := writeDigests(cfg.digestsOut, plan, ref); err != nil {
			return nil, err
		}
	}
	pinned, err := pinnedDigests(cfg.seed, insts, plan)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var passes []passRun
	var rss []float64 // untraced passes' peak RSS, MiB
	start := time.Now()
	// A traced run alternates untraced and traced passes so the tracing
	// overhead is measured on the same plan; it needs at least one of each.
	for i := 0; time.Since(start).Seconds() < cfg.seconds || (cfg.trace && i < 2); i++ {
		var ptr *tracer
		if cfg.trace && i%2 == 1 {
			ptr = tr
		}
		// Every pass starts from a collected heap with its freed pages
		// returned, so no pass pays for the previous one's garbage and
		// each pass's peak RSS is its own.
		resetPeakRSS()
		pr, err := runPass(plan, ptr)
		if err != nil {
			return nil, err
		}
		if ptr == nil {
			rss = append(rss, maxRSSMiB())
		}
		passes = append(passes, pr)
		for j, pt := range pr.Points {
			out.attempted++
			p := plan[j]
			switch {
			case pt.Digest != ref[j]:
				out.fail("pass %d %s/%s: digest %.12s differs from the warm-up pass's %.12s", i, p.Family.Key, p.Bench, pt.Digest, ref[j])
			case pinned != nil && pt.Digest != pinned[j]:
				out.fail("pass %d %s/%s: digest %.12s differs from the committed %.12s", i, p.Family.Key, p.Bench, pt.Digest, pinned[j])
			default:
				if err := checkPoint(p, pt.Res); err != nil {
					out.fail("pass %d %s/%s: %v", i, p.Family.Key, p.Bench, err)
				}
			}
		}
		if pr.Traced && pr.Covered < pr.Wall*95/100 {
			out.fail("pass %d: layer spans cover %.1f%% of the pass, need 95%%", i, 100*float64(pr.Covered)/float64(pr.Wall))
		}
	}

	var ipcs []float64
	for _, pt := range warm.Points {
		ipcs = append(ipcs, pt.Res.IPC)
	}
	rate := func(pr passRun) float64 { return float64(pr.Retired) / 1e6 / pr.Wall.Seconds() }
	// Each point's calls at the reference speed (calib.go); the
	// host-time metrics sum the points' medians.
	wallAt := make([][]float64, len(plan))
	cpuAt := make([][]float64, len(plan))
	var rates, tracedRates, gcs, pauses, refs []float64
	for _, pr := range passes {
		if pr.Traced {
			tracedRates = append(tracedRates, rate(pr))
			gcs = append(gcs, float64(pr.GCs))
			pauses = append(pauses, float64(pr.PauseNS)/1e6)
			continue
		}
		rates = append(rates, rate(pr))
		refs = append(refs, pr.Ref0)
		before := pr.Ref0
		for j, pt := range pr.Points {
			wallAt[j] = append(wallAt[j], atRef(float64(pt.ExecNS)/1e9, before, pt.Ref))
			cpuAt[j] = append(cpuAt[j], atRef(pt.CPU.Seconds(), before, pt.Ref))
			before = pt.Ref
			refs = append(refs, pt.Ref)
		}
	}
	if !cfg.trace {
		var wall, cpu float64
		for j := range plan {
			wall += median(wallAt[j])
			cpu += median(cpuAt[j])
		}
		minsts := float64(warm.Retired) / 1e6
		// Every result is simulated here, so the results' rate is the
		// simulation rate.
		out.set("minsts_per_s_ref", minsts/wall, "Minst/s")
		out.set("cpu_s_per_minst_ref", cpu/minsts, "s/Minst")
		out.set("op_s_ref", wall/float64(len(plan)), "s")
		out.set("sim_ipc_hmean", hmean(ipcs), "inst/cycle")
		out.set("max_rss_mb", mean(rss), "MiB")
		out.set("setup_s", setup, "s")
		// The workload's own, in raw host time: the median pass's rate,
		// and how fast the host ran the reference kernel.
		out.set("minsts_per_s_p50", median(rates), "Minst/s")
		out.set("ref_kernel_ms", median(refs)*1e3, "ms")
		return out, nil
	}
	if err := simulatorLayers(out, plan, passes, tr); err != nil {
		return nil, err
	}
	out.set("gc.cycles", median(gcs), "count")
	out.set("gc.pause_ms", median(pauses), "ms")
	out.set("trace_overhead_frac", median(rates)/median(tracedRates)-1, "frac")
	out.spans = tr.snapshot()
	return out, nil
}

// simulatorLayers sets the simulator's per-layer metrics from a plan's
// traced passes: program generation, the oracle pre-pass, host time per
// simulated cycle by family, allocation, the simulated counters of one
// pass, the functional model alone, and checkpoint capture.
func simulatorLayers(out *outcome, plan []point, passes []passRun, tr *tracer) error {
	insts := plan[0].Opts.Insts
	singleLayers(out, plan, passes)
	d, err := execPerInst(plan, insts, tr)
	if err != nil {
		return err
	}
	out.set("prog.exec_ns_per_inst", d, "ns/inst")
	ckpt, err := checkpointMS(plan, tr)
	if err != nil {
		return err
	}
	out.set("pipeline.checkpoint_ms", ckpt, "ms")
	return nil
}

// checkpointMS times checkpoint capture (K=2, as an intervals:2 run
// does) on a fresh workload cache for up to four of the plan's
// benchmarks at the plan's budget, and returns the median in ms.
func checkpointMS(plan []point, tr *tracer) (float64, error) {
	wc := sim.NewWorkloadCache()
	mem := pipeline.DefaultConfig().Mem
	seen := make(map[string]bool)
	var ct []float64
	for _, p := range plan {
		if seen[p.Bench] || len(ct) == 4 {
			continue
		}
		seen[p.Bench] = true
		if _, err := wc.Program(p.Bench); err != nil {
			return 0, err
		}
		id := tr.start("pipeline.checkpoint", 0, "", 0)
		if _, err := wc.Checkpoints(p.Bench, p.Opts.Insts, 2, sim.DefaultWarmupInsts, mem); err != nil {
			return 0, err
		}
		ct = append(ct, ms(tr.end(id)))
	}
	return median(ct), nil
}

// sidePass runs the seed's single-run plan at a service's budget: one
// untimed pass, then traced ones, for the simulator's per-layer metrics
// on a workload whose requests do not show them one by one.
func sidePass(out *outcome, seed int64, insts uint64, tr *tracer) error {
	plan, err := singlePlan(seed, insts)
	if err != nil {
		return err
	}
	var passes []passRun
	for i := 0; i <= sidePasses; i++ {
		var ptr *tracer
		if i > 0 {
			ptr = tr
		}
		runtime.GC()
		pr, err := runPass(plan, ptr)
		if err != nil {
			return err
		}
		for j, pt := range pr.Points {
			if err := checkPoint(plan[j], pt.Res); err != nil {
				out.fail("side pass %s/%s: %v", plan[j].Family.Key, plan[j].Bench, err)
			}
		}
		passes = append(passes, pr)
	}
	return simulatorLayers(out, plan, passes, tr)
}

// singleLayers derives the per-layer metrics from the traced passes and
// the (deterministic) simulated counters of the plan.
func singleLayers(out *outcome, plan []point, passes []passRun) {
	var gen, orac, alloc []float64
	perCycle := make(map[string][]float64)
	for _, pr := range passes {
		if !pr.Traced {
			continue
		}
		gen = append(gen, float64(pr.GenNS)/1e6)
		orac = append(orac, float64(pr.OracNS)/1e6)
		var bytes uint64
		for i, pt := range pr.Points {
			bytes += pt.AllocBytes
			k := plan[i].Family.Key
			perCycle[k] = append(perCycle[k], float64(pt.ExecNS)/float64(pt.Res.Stats.Cycles))
		}
		alloc = append(alloc, float64(bytes)/(float64(pr.Retired)/1e3))
	}
	out.set("prog.generate_ms", median(gen), "ms")
	out.set("pipeline.oracle_ms", median(orac), "ms")
	for _, f := range families {
		out.set("pipeline.ns_per_cycle."+f.Key, median(perCycle[f.Key]), "ns/cycle")
	}
	out.set("pipeline.alloc_bytes_per_kinst", median(alloc), "B/kinst")

	// Simulated counts over one pass: exact, identical in every pass.
	var c struct {
		cycles, retired, replays, mispredicts, stalls uint64
		reads, hits, conflict, capacity, filtered     uint64
		cacheCycles, backing, upTrains, upCorrect     uint64
	}
	for _, pt := range passes[0].Points {
		r := pt.Res
		c.cycles += r.Stats.Cycles
		c.retired += r.Stats.Retired
		c.replays += r.Stats.Replays
		c.mispredicts += r.Stats.Mispredicts
		c.stalls += r.Stats.PortConflictStalls
		c.upTrains += r.UsePredTrains
		c.upCorrect += r.UsePredCorrect
		if r.Cache.Reads > 0 {
			c.reads += r.Cache.Reads
			c.hits += r.Cache.Hits
			c.conflict += r.Cache.MissBy[core.MissConflict]
			c.capacity += r.Cache.MissBy[core.MissCapacity]
			c.filtered += r.Cache.MissBy[core.MissFiltered]
			c.cacheCycles += r.Stats.Cycles
			c.backing += r.BackingReads
		}
	}
	out.set("pipeline.cycles", float64(c.cycles), "count")
	out.set("pipeline.retired", float64(c.retired), "count")
	out.set("pipeline.replays", float64(c.replays), "count")
	out.set("pipeline.mispredicts", float64(c.mispredicts), "count")
	out.set("pipeline.port_conflict_stalls", float64(c.stalls), "count")
	out.set("core.reads", float64(c.reads), "count")
	out.set("core.hit_rate", fracOf(c.hits, c.reads), "frac")
	out.set("core.miss_conflict_rate", fracOf(c.conflict, c.reads), "frac")
	out.set("core.miss_capacity_rate", fracOf(c.capacity, c.reads), "frac")
	out.set("core.miss_filtered_rate", fracOf(c.filtered, c.reads), "frac")
	out.set("regfile.backing_reads_per_cycle", fracOf(c.backing, c.cacheCycles), "1/cycle")
	out.set("usepred.accuracy", fracOf(c.upCorrect, c.upTrains), "frac")
}

// execPerInst times the functional model alone: prog.NewExec and
// Exec.Step over each of the plan's programs for the pass's budget,
// committing as retirement would so the undo log stays bounded.
func execPerInst(plan []point, insts uint64, tr *tracer) (float64, error) {
	wc := sim.NewWorkloadCache()
	var ns float64
	var n uint64
	for _, p := range plan {
		pg, err := wc.Program(p.Bench)
		if err != nil {
			return 0, err
		}
		id := tr.start("prog.exec", 0, "", 0)
		t0 := time.Now()
		e := prog.NewExec(pg)
		for i := uint64(0); i < insts; i++ {
			e.Step()
			if i%256 == 255 {
				e.Commit(e.Checkpoint())
			}
		}
		ns += float64(time.Since(t0).Nanoseconds())
		tr.end(id)
		n += insts
	}
	return ns / float64(n), nil
}

func writeDigests(path string, plan []point, ds []string) error {
	entries := make([]digestEntry, len(plan))
	for i, p := range plan {
		entries[i] = digestEntry{Family: p.Family.Key, Bench: p.Bench, Digest: ds[i]}
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// pinnedDigests returns the committed digests when the run is the pinned
// one (default seed, full budget), or nil otherwise.
func pinnedDigests(seed int64, insts uint64, plan []point) ([]string, error) {
	if seed != defaultSeed || insts != singleInsts {
		return nil, nil
	}
	var entries []digestEntry
	if err := json.Unmarshal(committedDigests, &entries); err != nil {
		return nil, fmt.Errorf("committed digests: %w", err)
	}
	if len(entries) != len(plan) {
		return nil, fmt.Errorf("committed digests: %d entries for a %d-point plan", len(entries), len(plan))
	}
	out := make([]string, len(plan))
	for i, e := range entries {
		if e.Family != plan[i].Family.Key || e.Bench != plan[i].Bench {
			return nil, fmt.Errorf("committed digests: entry %d is %s/%s, plan has %s/%s",
				i, e.Family, e.Bench, plan[i].Family.Key, plan[i].Bench)
		}
		out[i] = e.Digest
	}
	return out, nil
}
