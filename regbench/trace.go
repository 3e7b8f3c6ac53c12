package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around its calls into the program's public API.
type span struct {
	ID     int
	Parent int    // 0 for a root span
	Name   string // layer.operation, e.g. "sim.execute"
	ReqID  string // the request a service span belongs to ("" otherwise)
	Lane   int    // the benchmark goroutine that made the call
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, parent int, reqID string, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, ReqID: reqID, Lane: lane, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// layerTime is one span name's aggregate: how many spans, their total
// duration, and their self time (duration not covered by child spans).
type layerTime struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the union of its children's intervals clipped to it, so children
// that overlap (parallel requests) are not subtracted twice.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		dur := s.End - s.Start
		lt := out[s.Name]
		lt.Count++
		lt.TotalMS += ms(dur)
		lt.SelfMS += ms(dur - covered(s, children[s.ID]))
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end time.Duration
	first := true
	for _, v := range ivs {
		switch {
		case first || v.lo >= end:
			total += v.hi - v.lo
			end = v.hi
			first = false
		case v.hi > end:
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// writeChrome writes the spans as a Chrome trace_event document (complete
// "X" events, microsecond timestamps), which chrome://tracing and Perfetto
// open like the simulator's own -trace output.
func writeChrome(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	fmt.Fprint(w, `{"name":"process_name","ph":"M","pid":0,"args":{"name":"regbench"}}`)
	enc := json.NewEncoder(w)
	for _, s := range sorted {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.ReqID != "" {
			args["request_id"] = s.ReqID
		}
		fmt.Fprint(w, ",")
		if err := enc.Encode(event{Name: s.Name, Cat: "regbench", Ph: "X",
			TS: us(s.Start), Dur: us(s.End - s.Start), PID: 0, TID: s.Lane, Args: args}); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
