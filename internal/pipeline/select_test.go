package pipeline

import (
	"fmt"
	"testing"

	"regcache/internal/core"
	"regcache/internal/twolevel"
)

// checkWakePool asserts that every wake-list node is accounted for: on
// the free list or on the list of an in-flight producer (front end or
// ROB). A node on neither leaked — a producer squashed or retired without
// returning its list.
func checkWakePool(pl *Pipeline) error {
	held := 0
	walk := func(u *uop) {
		for n := u.wakeHead; n != 0; n = pl.wakeNodes[n].next {
			held++
		}
	}
	for _, u := range pl.frontq {
		walk(u)
	}
	for i := range pl.threads {
		tc := &pl.threads[i]
		for k := 0; k < tc.robCount; k++ {
			walk(tc.rob[(tc.robHead+k)%len(tc.rob)])
		}
	}
	free := 0
	for n := pl.wakeFree; n != 0; n = pl.wakeNodes[n].next {
		free++
	}
	if total := len(pl.wakeNodes) - 1; held+free != total {
		return fmt.Errorf("wake pool: %d nodes held by in-flight producers + %d free != %d allocated", held, free, total)
	}
	return nil
}

// referenceSelect is the full-window walk that candidate-bitmap select
// must reproduce: every slot of the issue window in age order, skipping
// stale slots, uops whose function-unit class is exhausted, and uops that
// are not issuable, until IssueWidth uops are chosen. It mutates nothing.
func referenceSelect(pl *Pipeline) []*uop {
	if pl.suppressIssue {
		return nil
	}
	var used [numFUClasses]int
	var picked []*uop
	for _, e := range pl.iq {
		if len(picked) >= pl.cfg.IssueWidth {
			break
		}
		u := e.u
		if u == nil || u.seq != e.seq || u.state != uInIQ {
			continue
		}
		cls := classOf(u.inst.Op)
		if used[cls] >= pl.fuCap[cls] || !pl.issuable(u) {
			continue
		}
		used[cls]++
		picked = append(picked, u)
	}
	return picked
}

// waitingSources recounts, from the operands alone, how many of u's
// sources are produced by a live in-flight uop that has not begun
// executing — what u.pending must equal.
func waitingSources(u *uop) int8 {
	var n int8
	for i := range u.srcs {
		s := &u.srcs[i]
		if p := s.producer; s.isReal() && p != nil && p.seq == s.prodSeq && p.state < uExecuting {
			n++
		}
	}
	return n
}

// checkWindow asserts the wakeup bookkeeping of every live window slot:
// its recorded position, its pending count against a recount, and — for
// uops still waiting in the window — a candidate bit set exactly when
// pending is zero.
func checkWindow(pl *Pipeline) error {
	if want := (len(pl.iq) + 63) >> 6; len(pl.candidates) < want {
		return fmt.Errorf("%d candidate words for %d slots", len(pl.candidates), len(pl.iq))
	}
	for pos, e := range pl.iq {
		u := e.u
		if u == nil || u.seq != e.seq || (u.state != uInIQ && u.state != uIssued) {
			continue
		}
		if int(u.iqPos) != pos {
			return fmt.Errorf("seq %d sits in slot %d but records slot %d", u.seq, pos, u.iqPos)
		}
		if u.state != uInIQ {
			continue
		}
		if want := waitingSources(u); u.pending != want {
			return fmt.Errorf("seq %d: pending %d, but %d sources wait on a producer", u.seq, u.pending, want)
		}
		bit := pl.candidates[pos>>6]&(1<<(pos&63)) != 0
		if bit != (u.pending == 0) {
			return fmt.Errorf("seq %d in slot %d: candidate bit %v with pending %d", u.seq, pos, bit, u.pending)
		}
	}
	return nil
}

// selectMatrix returns the configurations the differential select test
// sweeps: every scheme family, monolithic latencies with their different
// storage holes, both bypass depths, ported backing files, and shared
// windows at two and four contexts.
func selectMatrix() map[string]Config {
	m := map[string]Config{}
	for lat := 1; lat <= 4; lat++ {
		c := DefaultConfig()
		c.Scheme = SchemeMonolithic
		c.RFLatency = lat
		m[fmt.Sprintf("mono-%d", lat)] = c
	}
	mono1 := DefaultConfig()
	mono1.Scheme = SchemeMonolithic
	mono1.BypassStages = 1
	m["mono-3-bypass1"] = mono1

	m["use"] = DefaultConfig()
	use1 := DefaultConfig()
	use1.BypassStages = 1
	m["use-bypass1"] = use1

	lru := DefaultConfig()
	lru.CacheCfg = core.LRUConfig(64, 2)
	m["lru"] = lru

	nb := DefaultConfig()
	nb.CacheCfg = core.NonBypassConfig(64, 2)
	m["nb"] = nb

	for _, l1 := range []int{96, 128} {
		c := DefaultConfig()
		c.Scheme = SchemeTwoLevel
		c.TwoLevelCfg = twolevel.Config{L1Entries: l1, L2Latency: 2}
		m[fmt.Sprintf("twolevel-%d", l1)] = c
	}

	oracle := DefaultConfig()
	oracle.OracleUses = true
	m["oracle"] = oracle

	for _, ports := range []int{1, 2} {
		c := DefaultConfig()
		c.ReadPorts = ports
		m[fmt.Sprintf("port-p%d", ports)] = c
	}

	for _, threads := range []int{2, 4} {
		c := DefaultConfig()
		c.Threads = threads
		m[fmt.Sprintf("use-t%d", threads)] = c
	}
	return m
}

// TestSelectMatchesFullWindowScan drives the machine one cycle at a time
// through the stage table and, just before each cycle's select, computes
// the reference full-window walk without side effects. Select must issue
// exactly the reference's uops in the reference's order, and afterwards
// every uop still waiting in the window must carry a candidate bit exactly
// when none of its producers is still waiting to execute, and no wake-list
// node may leak from the pool.
func TestSelectMatchesFullWindowScan(t *testing.T) {
	issueAt := -1
	for i, st := range cycleStages {
		if st.name == "issue" {
			issueAt = i
		}
	}
	if issueAt < 0 {
		t.Fatal("stage table has no issue stage")
	}
	cycles := 12_000
	if testing.Short() {
		cycles = 3_000
	}
	var replays, squashed, suppressed, picked uint64
	for name, cfg := range selectMatrix() {
		for _, bench := range []string{"gzip", "mcf"} {
			pl := newBenchPipeline(t, cfg, bench)
			if cfg.OracleUses {
				for i := range pl.threads {
					pl.threads[i].oracle = BuildOracle(pl.threads[i].prog, uint64(cycles)*uint64(cfg.IssueWidth))
				}
			}
			for c := 0; c < cycles; c++ {
				pl.beginCycle()
				for _, st := range cycleStages[:issueAt] {
					st.run(pl)
				}
				want := referenceSelect(pl)
				pl.issue()
				if err := sameIssue(pl.issuedNow, want); err != nil {
					t.Fatalf("%s/%s cycle %d: %v", name, bench, pl.now, err)
				}
				if err := checkWindow(pl); err != nil {
					t.Fatalf("%s/%s cycle %d: %v", name, bench, pl.now, err)
				}
				if err := checkWakePool(pl); err != nil {
					t.Fatalf("%s/%s cycle %d: %v", name, bench, pl.now, err)
				}
				for _, st := range cycleStages[issueAt+1:] {
					st.run(pl)
				}
				pl.Stats.Cycles = pl.now
				picked += uint64(len(want))
			}
			if pl.Stats.Retired == 0 {
				t.Fatalf("%s/%s: nothing retired in %d cycles", name, bench, cycles)
			}
			replays += pl.Stats.Replays
			squashed += pl.Stats.Squashed
			suppressed += pl.Stats.SuppressedIssueCycles
		}
	}
	// The matrix must reach the paths that make readiness non-monotonic
	// or recycle window slots, or the comparison proves little.
	if picked == 0 || replays == 0 || squashed == 0 || suppressed == 0 {
		t.Fatalf("matrix too tame: %d issued, %d replays, %d squashed, %d suppressed-issue cycles",
			picked, replays, squashed, suppressed)
	}
}

// sameIssue compares this cycle's issued uops with the reference pick.
func sameIssue(got, want []*uop) error {
	if len(got) != len(want) {
		return fmt.Errorf("issued %d uops, reference picks %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] || got[i].seq != want[i].seq {
			return fmt.Errorf("issue slot %d: seq %d, reference picks seq %d", i, got[i].seq, want[i].seq)
		}
	}
	return nil
}
