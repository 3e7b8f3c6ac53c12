package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"regcache/internal/explore"
	"regcache/internal/obs"
	"regcache/internal/serve"
	"regcache/internal/sim"
	"regcache/internal/store"
)

// The service workloads run the service in-process, wired as cmd/regsimd
// wires it with -store, behind a loopback listener, with two closed-loop
// client connections. The runner gets one simulation worker: on the
// two-vCPU machine the benchmark was tuned on, two workers made
// service-cold's throughput swing by a fifth between runs (the two
// simulations share a physical core or not, as the host places them);
// one kept the spread near a tenth. service-warm runs the same service,
// so both measure one configuration. Interval points still simulate
// their two intervals in parallel.
const (
	serviceWorkers = 1
	clients        = 2
	refRequests    = 48 // stream prefix the service workloads send
)

// service is one running instance of the service over a store directory.
type service struct {
	store  *sim.ResultStore
	runner *sim.Runner
	srv    *serve.Server
	hs     *http.Server
	url    string
	hc     *http.Client // the benchmark's client, whose connections stop closes
	served chan error
	openMS float64 // sim.OpenResultStore time
}

// startService opens the store, builds the runner and server, listens on
// a loopback port and returns once GET /healthz answers.
func startService(dir string, hc *http.Client) (*service, error) {
	t0 := time.Now()
	rs, err := sim.OpenResultStore(dir, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	s := &service{store: rs, openMS: ms(time.Since(t0)), hc: hc, served: make(chan error, 1)}
	// A fresh workload cache, as a restarted regsimd process has.
	s.runner = sim.NewRunnerWith(serviceWorkers, sim.NewWorkloadCache())
	if err := s.runner.UseStore(rs); err != nil {
		rs.Close()
		return nil, fmt.Errorf("attach store: %w", err)
	}
	s.srv = serve.New(serve.Config{
		Backend: s.runner,
		Workers: serviceWorkers,
		Store:   rs,
		Flight:  obs.DefaultFlight(),
		Logger:  obs.NewLogger(io.Discard), // formats every line as regsimd does, writes none
	})
	s.srv.RegisterMetrics(obs.NewRegistry(), "serve")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.runner.Close()
		rs.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { s.served <- s.hs.Serve(ln) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := hc.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("service did not answer /healthz: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the client's idle connections, drains the server (which
// closes the runner and flushes queued store appends), closes the store,
// and shuts the listener down. Closing the client's connections first
// matters: http.Server.Shutdown waits five seconds for a connection the
// client opened but never used.
func (s *service) stop() error {
	s.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Drain(ctx)
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	if serr := s.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// reply is one completed request.
type reply struct {
	Req        *request
	Traced     bool
	Start, End time.Time
	Status     int
	Body       []byte
	Err        error
}

func (r reply) latency() float64 { return r.End.Sub(r.Start).Seconds() }

func (r reply) ok() bool { return r.Err == nil && r.Status/100 == 2 }

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// send posts one request and reads the whole body; the latency runs from
// the send to the last body byte.
func send(hc *http.Client, url string, r *request, traced bool) reply {
	body, path := r.Body, "/v1/sweep"
	if traced {
		body = r.Timed
	}
	if r.Kind == "explore" {
		path = "/v1/explore"
	}
	rep := reply{Req: r, Traced: traced, Start: time.Now()}
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		rep.Err, rep.End = err, time.Now()
		return rep
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", fmt.Sprintf("rb-%d", r.Idx))
	resp, err := hc.Do(req)
	if err == nil {
		rep.Body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rep.Status = resp.StatusCode
	}
	rep.Err, rep.End = err, time.Now()
	return rep
}

// driveOpts shapes one closed-loop phase.
type driveOpts struct {
	hc     *http.Client
	url    string
	next   func() (*request, bool)
	traced func(*request) bool
	tr     *tracer
	parent int // span the request spans hang under
	// exclusive, when set, serialises explorations against all other
	// requests so their run-layer counter deltas can be attributed.
	exclusive *sync.RWMutex
	onExplore func(before, after sim.RunnerStats, r *request)
	stats     func() sim.RunnerStats
}

// drive runs the closed loop: each client sends its next request only
// after the previous reply arrived, until next reports the end.
func drive(o driveOpts) []reply {
	var (
		mu  sync.Mutex
		out []reply
		wg  sync.WaitGroup
	)
	for lane := 1; lane <= clients; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r, ok := o.next()
				if !ok {
					return
				}
				traced := o.traced != nil && o.traced(r)
				var before sim.RunnerStats
				if o.exclusive != nil {
					if r.Kind == "explore" {
						o.exclusive.Lock()
						before = o.stats()
					} else {
						o.exclusive.RLock()
					}
				}
				id := o.tr.start("client."+r.Kind, o.parent, fmt.Sprintf("rb-%d", r.Idx), lane)
				rep := send(o.hc, o.url, r, traced)
				o.tr.end(id)
				if o.exclusive != nil {
					if r.Kind == "explore" {
						o.onExplore(before, o.stats(), r)
						o.exclusive.Unlock()
					} else {
						o.exclusive.RUnlock()
					}
				}
				mu.Lock()
				out = append(out, rep)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// docCheck validates the replies' documents: status, shape, the
// checkresults invariants on every sweep document, and explore.ValidateResult
// (what checkresults -explore runs) on every exploration.
type docCheck struct {
	dir     string
	checker string
	paths   []string

	// Per request index, from the documents that parsed: the simulated
	// instructions the results stand for (each sweep run's retired count;
	// each exploration's rung budgets) and the sweep runs' IPCs.
	insts map[int]uint64
	ipcs  map[int][]float64
}

func newDocCheck(dir, checker string) *docCheck {
	return &docCheck{dir: dir, checker: checker, insts: make(map[int]uint64), ipcs: make(map[int][]float64)}
}

// resultMinsts sums the instructions of the replies' results, in millions.
func (c *docCheck) resultMinsts(reps []reply) float64 {
	var n uint64
	for _, rep := range reps {
		if rep.ok() {
			n += c.insts[rep.Req.Idx]
		}
	}
	return float64(n) / 1e6
}

// ipcHmean is the harmonic-mean IPC of the checked sweep runs:
// simulated, so for a seed it repeats exactly.
func (c *docCheck) ipcHmean() float64 {
	idx := make([]int, 0, len(c.ipcs))
	for i := range c.ipcs {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var xs []float64
	for _, i := range idx {
		xs = append(xs, c.ipcs[i]...)
	}
	return hmean(xs)
}

func (c *docCheck) add(out *outcome, rep *reply) {
	r := rep.Req
	if !rep.ok() {
		out.fail("request %d (%s): status %d, err %v: %.200s", r.Idx, r.Kind, rep.Status, rep.Err, rep.Body)
		return
	}
	if r.Kind == "explore" {
		var res explore.Result
		if err := json.Unmarshal(rep.Body, &res); err != nil {
			out.fail("request %d: explore document: %v", r.Idx, err)
		} else if err := explore.ValidateResult(&res); err != nil {
			out.fail("request %d: explore document: %v", r.Idx, err)
		} else if evals := exploreEvals(&res); evals != r.Points {
			out.fail("request %d: explore document has %d evaluations, planned %d", r.Idx, evals, r.Points)
		} else {
			for _, rg := range res.Rungs {
				c.insts[r.Idx] += rg.Insts * uint64(rg.Candidates*len(res.Benches))
			}
		}
		return
	}
	var f sim.ResultsFile
	if err := json.Unmarshal(rep.Body, &f); err != nil {
		out.fail("request %d: results document: %v", r.Idx, err)
		return
	}
	if len(f.Runs) != r.Points {
		out.fail("request %d: %d runs for %d points", r.Idx, len(f.Runs), r.Points)
		return
	}
	for _, run := range f.Runs {
		c.insts[r.Idx] += run.Retired
		c.ipcs[r.Idx] = append(c.ipcs[r.Idx], run.IPC)
	}
	p := filepath.Join(c.dir, fmt.Sprintf("sweep-%d.json", r.Idx))
	if err := os.WriteFile(p, rep.Body, 0o644); err != nil {
		out.fail("request %d: save document: %v", r.Idx, err)
		return
	}
	c.paths = append(c.paths, p)
}

// run invokes checkresults on every saved sweep document and counts each
// document it rejects as a failed operation.
func (c *docCheck) run(out *outcome) error {
	if len(c.paths) == 0 {
		return nil
	}
	var stderr bytes.Buffer
	cmd := exec.Command(c.checker, c.paths...)
	cmd.Stdout, cmd.Stderr = io.Discard, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return fmt.Errorf("run checkresults: %w", err)
	}
	rejected := 0
	for _, line := range strings.Split(stderr.String(), "\n") {
		for _, p := range c.paths {
			if strings.HasPrefix(line, p+":") {
				out.fail("checkresults: %s", line)
				rejected++
				break
			}
		}
	}
	if err != nil && rejected == 0 {
		out.fail("checkresults exited with %v: %.300s", err, stderr.String())
	}
	return nil
}

func exploreEvals(res *explore.Result) int {
	n := 0
	for _, rg := range res.Rungs {
		n += rg.Candidates * len(res.Benches)
	}
	return n
}

// latencies splits the replies' latencies by kind; a failed request
// counts as +Inf, over any limit.
func latencies(reps []reply) (sweeps, explores []float64) {
	for _, rep := range reps {
		l := rep.latency()
		if !rep.ok() {
			l = inf
		}
		if rep.Req.Kind == "explore" {
			explores = append(explores, l)
		} else {
			sweeps = append(sweeps, l)
		}
	}
	return sweeps, explores
}

// timings decodes a traced sweep reply's per-point timing blocks.
func timings(rep reply) []sim.RunRecord {
	if !rep.Traced || rep.Req.Kind != "sweep" || !rep.ok() {
		return nil
	}
	var f sim.ResultsFile
	if json.Unmarshal(rep.Body, &f) != nil {
		return nil
	}
	return f.Runs
}

func fracOf(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// pointsOf sums the points the replies requested.
func pointsOf(reps []reply) uint64 {
	var n uint64
	for _, rep := range reps {
		n += uint64(rep.Req.Points)
	}
	return n
}
