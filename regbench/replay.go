package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"regcache/internal/sim"
)

// The service workloads replay the seed's first refRequests requests in
// generations of one block (blockLen requests) each, taking the blocks in
// turn. Each generation starts the service as a restarted regsimd starts
// (fresh runner and workload cache, the store opened from disk), sends the
// block from two closed-loop clients, and stops it.
//
//   - service-cold gives every generation an empty store, so every
//     distinct point is simulated again, once: simulation plus admission,
//     the runner's queue, memo and coalescing, checkpoint capture, store
//     appends and exploration rungs.
//   - service-warm restarts every generation over the store the reference
//     generation filled, so a point's first request is a store read, later
//     ones are memo hits, and nothing is simulated.
//
// An untimed reference generation on an empty store sends all refRequests
// first. Its documents pass checkresults (or explore.ValidateResult), and
// every later reply must equal its reply byte for byte.
//
// Host-time metrics are taken at the reference speed (calib.go), with
// the reference kernel timed before and after every generation: each
// block's median generation, summed over the blocks, for throughput and
// CPU time, and each request's median latency. Summing over the blocks
// evens out what the seed put in each.
func runServiceCold(cfg config) (*outcome, error) { return runService(cfg, true) }

func runServiceWarm(cfg config) (*outcome, error) { return runService(cfg, false) }

func runService(cfg config, cold bool) (*outcome, error) {
	out := newOutcome()
	all, err := serviceStream(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	stream := all[:refRequests]
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	name := "service-warm"
	if cold {
		name = "service-cold"
	}

	// The reference generation.
	refDir := filepath.Join(cfg.workdir, "store")
	svc, err := startService(refDir, hc)
	if err != nil {
		return nil, err
	}
	before := svc.runner.Stats()
	fill := drive(driveOpts{hc: hc, url: svc.url, next: cursor(stream)})
	if err := onceEach(svc.runner, before); err != nil {
		out.fail("reference generation: %v", err)
	}
	if err := svc.stop(); err != nil {
		return nil, err
	}
	ref := make(map[int][]byte, len(fill))
	check := newDocCheck(cfg.workdir, cfg.checker)
	for i := range fill {
		out.attempted++
		check.add(out, &fill[i])
		ref[fill[i].Req.Idx] = fill[i].Body
	}
	if err := check.run(out); err != nil {
		return nil, err
	}
	if out.failed > 0 {
		return out, fmt.Errorf("%s: the reference generation failed: %v", name, out.notes)
	}
	if cold {
		os.RemoveAll(refDir)
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var (
		blocks        [refRequests / blockLen]blockRuns // untraced generations
		latAt         = make(map[int][]float64)         // request index → untraced latencies at the reference speed
		setups, opens []float64
		refs          []float64 // refTime() around the generations, raw
		// Latencies by kind, untraced and traced, and the points the
		// traced generations requested: kept instead of the replies, whose
		// growing slice would show in the generations' peak RSS.
		sweeps, explores, tSweeps []float64
		tPoints                   uint64
		delta                     sim.RunnerStats // traced generations
		gcs                       uint32
		pauseNS                   uint64
		liveBytes                 int64
		layers                    serviceLayers
		exMu                      sync.Mutex
		exResim                   []float64 // per traced exploration: share of its evaluations simulated
	)
	start := time.Now()
	// A traced run alternates untraced and traced generations so the
	// tracing overhead is measured on the same requests.
	for gen := 0; time.Since(start).Seconds() < cfg.seconds || (cfg.trace && gen < 2); gen++ {
		traced := cfg.trace && gen%2 == 1
		var gtr *tracer
		if traced {
			gtr = tr
		}
		dir := refDir
		if cold {
			dir = filepath.Join(cfg.workdir, fmt.Sprintf("store-%d", gen))
		}
		// Every generation starts from a collected heap with its freed
		// pages returned, as each pass of single-run does.
		resetPeakRSS()
		refBefore := refTime()
		gid := gtr.start(name+".generation", 0, "", 0)
		rid := gtr.start("serve.restart", gid, "", 0)
		t0 := time.Now()
		svc, err := startService(dir, hc)
		if err != nil {
			return nil, err
		}
		setup := time.Since(t0).Seconds()
		gtr.end(rid)
		opens = append(opens, svc.openMS)
		liveBytes = svc.store.Store().Stats().LiveBytes

		// A traced run times each block twice in a row, untraced then
		// traced.
		b := gen % len(blocks)
		if cfg.trace {
			b = gen / 2 % len(blocks)
		}
		block := stream[b*blockLen : (b+1)*blockLen]
		opts := driveOpts{hc: hc, url: svc.url, next: cursor(block), tr: gtr, parent: gid,
			traced: func(*request) bool { return traced }}
		if traced && cold {
			// Explorations run alone, so the runner's counter deltas
			// during one belong to it.
			opts.exclusive = &sync.RWMutex{}
			opts.stats = svc.runner.Stats
			opts.onExplore = func(b, a sim.RunnerStats, r *request) {
				exMu.Lock()
				exResim = append(exResim, fracOf(a.Sub(b).JobsRun, uint64(r.Points)))
				exMu.Unlock()
			}
		}
		var ms0, ms1 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&ms0)
		}
		before := svc.runner.Stats()
		c0, g0 := cpuTime(), time.Now()
		greps := drive(opts)
		wall, cpu := time.Since(g0), cpuTime()-c0
		d := svc.runner.Stats().Sub(before)
		var simulated uint64
		for _, j := range svc.runner.CompletedJobs() {
			simulated += j.Result.Stats.Retired
		}
		if cold {
			if err := onceEach(svc.runner, before); err != nil {
				out.fail("generation %d: %v", gen, err)
			}
		} else if d.JobsRun != 0 {
			out.fail("generation %d simulated %d points, want 0", gen, d.JobsRun)
		}
		if traced {
			runtime.ReadMemStats(&ms1)
			gcs += ms1.NumGC - ms0.NumGC
			pauseNS += ms1.PauseTotalNs - ms0.PauseTotalNs
		}
		if err := svc.stop(); err != nil {
			return nil, err
		}
		rss := maxRSSMiB()
		gtr.end(gid)
		if cold {
			os.RemoveAll(dir)
		}
		refAfter := refTime()
		refs = append(refs, refBefore, refAfter)
		at := func(t float64) float64 { return atRef(t, refBefore, refAfter) }
		setups = append(setups, at(setup))
		if traced {
			delta.JobsRun += d.JobsRun
			delta.CacheHits += d.CacheHits
			delta.StoreHits += d.StoreHits
		} else {
			bb := &blocks[b]
			bb.wall = append(bb.wall, at(wall.Seconds()))
			bb.rawWall = append(bb.rawWall, wall.Seconds())
			bb.cpu = append(bb.cpu, at(cpu.Seconds()))
			bb.rss = append(bb.rss, rss)
			bb.results, bb.simulated = check.resultMinsts(greps), float64(simulated)/1e6
		}
		for i := range greps {
			rep := &greps[i]
			out.attempted++
			if err := sameBody(*rep, ref[rep.Req.Idx]); err != nil {
				out.fail("generation %d request %d: %v", gen, rep.Req.Idx, err)
			}
			if traced {
				layers.add(out, *rep)
			} else if rep.ok() {
				latAt[rep.Req.Idx] = append(latAt[rep.Req.Idx], at(rep.latency()))
			}
		}
		if traced {
			ts, _ := latencies(greps)
			tSweeps = append(tSweeps, ts...)
			tPoints += pointsOf(greps)
		} else {
			s, e := latencies(greps)
			sweeps, explores = append(sweeps, s...), append(explores, e...)
		}
	}

	if !cfg.trace {
		// Each block's median generation at the reference speed, summed
		// over the blocks the run timed (a short run may not reach them
		// all); each request's median latency at the reference speed.
		var blocksRun, wall, rawWall, cpu, results, simulated, requests, lat, rss float64
		for i, bb := range blocks {
			if len(bb.wall) == 0 {
				continue
			}
			rss += mean(bb.rss)
			wall += median(bb.wall)
			rawWall += median(bb.rawWall)
			cpu += median(bb.cpu)
			results += bb.results
			simulated += bb.simulated
			requests += blockLen
			blocksRun++
			for _, r := range stream[i*blockLen : (i+1)*blockLen] {
				l := inf // never answered: over any limit
				if xs := latAt[r.Idx]; len(xs) > 0 {
					l = median(xs)
				}
				lat += l
			}
		}
		out.set("minsts_per_s_ref", results/wall, "Minst/s")
		out.set("cpu_s_per_minst_ref", cpu/results, "s/Minst")
		out.set("op_s_ref", lat/requests, "s")
		out.set("sim_ipc_hmean", check.ipcHmean(), "inst/cycle")
		out.set("max_rss_mb", rss/blocksRun, "MiB")
		out.set("setup_s", median(setups), "s")
		// The workload's own; raw host time where not marked _ref.
		out.set("minsts_per_s_p50", results/rawWall, "Minst/s")
		out.set("ref_kernel_ms", median(refs)*1e3, "ms")
		if cold {
			out.set("sim_minsts_per_s_ref", simulated/wall, "Minst/s")
		} else {
			out.set("requests_per_s_ref", requests/wall, "1/s")
			out.setPctIfEnough("sweep_s_p99", sweeps, 0.99, "s")
		}
		out.setPctIfEnough("sweep_s_p50", sweeps, 0.5, "s")
		out.setPctIfEnough("sweep_s_p90", sweeps, 0.9, "s")
		out.setPctIfEnough("explore_s_p50", explores, 0.5, "s")
		return out, nil
	}

	// The service's layers, from the traced generations.
	if cold {
		out.setPctIfEnough("sim.queue_wait_ms_p50", layers.queue, 0.5, "ms")
		out.setPctIfEnough("sim.sim_ms_p50", layers.sim, 0.5, "ms")
		out.set("explore.resim_frac", median(exResim), "frac")
	} else {
		if layers.simMS != 0 {
			out.fail("traced generations report %.3f ms of simulation, want 0", layers.simMS)
		}
		out.setPctIfEnough("store.lookup_ms_p50", layers.lookups, 0.5, "ms")
		out.setPctIfEnough("store.lookup_ms_p99", layers.lookups, 0.99, "ms")
		out.set("store.open_ms", median(opens), "ms")
		out.set("store.live_bytes", float64(liveBytes), "B")
		out.setPctIfEnough("serve.self_ms_p50", layers.self, 0.5, "ms")
		out.setPctIfEnough("serve.response_kb_p50", layers.kb, 0.5, "KiB")
		// Nothing is simulated in any generation (checked above), so no
		// exploration evaluation is either.
		out.set("explore.resim_frac", 0, "frac")
	}
	out.set("sim.resimulated_frac", fracOf(delta.JobsRun, tPoints), "frac")
	out.set("sim.coalesced_frac", fracOf(delta.CacheHits, tPoints), "frac")
	out.set("sim.store_hit_frac", fracOf(delta.StoreHits, tPoints), "frac")
	var evals []float64
	for _, r := range stream {
		if r.Kind == "explore" {
			evals = append(evals, float64(r.Points))
		}
	}
	out.set("explore.evaluations", median(evals), "count")
	out.set("gc.cycles", float64(gcs), "count")
	out.set("gc.pause_ms", float64(pauseNS)/1e6, "ms")
	out.set("trace_overhead_frac", median(tSweeps)/median(sweeps)-1, "frac")
	// The simulator's layers, which a sweep's timings show only in sum
	// (and, on service-warm, the costs the store and memo save): the
	// seed's single-run plan at the stream's budget.
	if err := sidePass(out, cfg.seed, cfg.insts(sweepInstsSmall), tr); err != nil {
		return nil, err
	}
	out.spans = tr.snapshot()
	return out, nil
}

// blockRuns collects one block's untraced generations: their wall and
// CPU times (at the reference speed, and the raw wall time), and the
// instructions the block's results stand for and it simulated (in
// millions), which every generation of the block repeats.
type blockRuns struct {
	wall, rawWall, cpu []float64
	rss                []float64 // peak RSS, MiB
	results, simulated float64
}

// onceEach checks that the runner simulated every distinct point it
// completed since before exactly once, as memo and coalescing promise on
// a store that held none of them, and simulated at least one.
func onceEach(r *sim.Runner, before sim.RunnerStats) error {
	ran, done := r.Stats().Sub(before).JobsRun, uint64(len(r.CompletedJobs()))
	if ran != done || ran == 0 {
		return fmt.Errorf("runner simulated %d jobs for %d distinct points", ran, done)
	}
	return nil
}

// serviceLayers accumulates the per-layer samples of traced generations.
type serviceLayers struct {
	queue, sim        []float64 // simulated points' queue wait and simulation, ms
	lookups, self, kb []float64
	simMS             float64 // simulation time summed over every point
}

func (l *serviceLayers) add(out *outcome, rep reply) {
	if rep.Req.Kind == "sweep" && rep.ok() {
		l.kb = append(l.kb, float64(len(rep.Body))/1024)
	}
	runs := timings(rep)
	if len(runs) == 0 {
		return
	}
	// Points run in parallel, so the slowest point's queue, lookup and
	// simulation time sets the sweep's; the rest is the service's own.
	var slowest float64
	for _, run := range runs {
		t := run.Timing
		if t == nil {
			out.fail("request %d: traced sweep without timings", rep.Req.Idx)
			continue
		}
		switch t.Outcome {
		case "simulated":
			l.queue = append(l.queue, t.QueueWaitMS)
			l.sim = append(l.sim, t.SimMS)
		case "store":
			l.lookups = append(l.lookups, t.StoreLookupMS)
		}
		l.simMS += t.SimMS
		slowest = max(slowest, t.QueueWaitMS+t.StoreLookupMS+t.SimMS)
	}
	l.self = append(l.self, rep.latency()*1e3-slowest)
}

// cursor hands out the requests in order, once each, across clients.
func cursor(reqs []request) func() (*request, bool) {
	var next atomic.Int64
	return func() (*request, bool) {
		i := next.Add(1) - 1
		if int(i) >= len(reqs) {
			return nil, false
		}
		return &reqs[i], true
	}
}

// sameBody checks a replayed reply against the reference generation's
// body: byte for byte, or, for a traced sweep, equal once the timing
// blocks (which only traced requests carry) are removed.
func sameBody(rep reply, want []byte) error {
	if !rep.ok() {
		return fmt.Errorf("status %d, err %v: %.200s", rep.Status, rep.Err, rep.Body)
	}
	if !rep.Traced || rep.Req.Kind != "sweep" {
		if !bytes.Equal(rep.Body, want) {
			return fmt.Errorf("body differs from the reference generation's")
		}
		return nil
	}
	var got sim.ResultsFile
	if err := json.Unmarshal(rep.Body, &got); err != nil {
		return err
	}
	for i := range got.Runs {
		got.Runs[i].Timing = nil
	}
	var ref sim.ResultsFile
	if err := json.Unmarshal(want, &ref); err != nil {
		return err
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(ref)
	if !bytes.Equal(a, b) {
		return fmt.Errorf("body differs from the reference generation's beyond its timings")
	}
	return nil
}
