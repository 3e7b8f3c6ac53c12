package regfile

import (
	"testing"

	"regcache/internal/core"
)

// TestLifetimePhaseTable drives single-register lifetimes through a table
// of alloc/write/read/free schedules and checks the three phase histograms
// record exactly the documented intervals: empty = alloc->first write,
// live = first write->last read (clamped at the write for never-read
// values), dead = last read->free.
func TestLifetimePhaseTable(t *testing.T) {
	cases := []struct {
		name              string
		alloc, write      uint64
		reads             []uint64
		free              uint64
		empty, live, dead int
	}{
		{"read-once", 10, 14, []uint64{20}, 30, 4, 6, 10},
		{"read-many-out-of-order", 0, 5, []uint64{9, 30, 12}, 40, 5, 25, 10},
		{"never-read", 10, 12, nil, 50, 2, 0, 38},
		{"immediate", 7, 7, []uint64{7}, 7, 0, 0, 0},
		{"write-equals-free", 3, 8, []uint64{8}, 8, 5, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLifetimes(4, false)
			const p = core.PReg(1)
			l.Alloc(p, tc.alloc)
			l.Write(p, tc.write)
			for _, r := range tc.reads {
				l.Read(p, r)
			}
			l.Free(p, tc.free)
			if n := l.Empty.N(); n != 1 {
				t.Fatalf("Empty recorded %d lifetimes, want 1", n)
			}
			if got := l.Empty.Max(); got != tc.empty {
				t.Errorf("empty phase = %d, want %d", got, tc.empty)
			}
			if got := l.Live.Max(); got != tc.live {
				t.Errorf("live phase = %d, want %d", got, tc.live)
			}
			if got := l.Dead.Max(); got != tc.dead {
				t.Errorf("dead phase = %d, want %d", got, tc.dead)
			}
			// The three phases partition the written lifetime exactly.
			if sum := tc.empty + tc.live + tc.dead; sum != int(tc.free-tc.alloc) {
				t.Errorf("phase sum %d != lifetime %d (table inconsistency)", sum, tc.free-tc.alloc)
			}
		})
	}
}

// TestLifetimeSquashedWriterNotRecorded: a register freed before its value
// was ever written (a squashed producer) is not an architectural lifetime
// and must leave all three histograms empty.
func TestLifetimeSquashedWriterNotRecorded(t *testing.T) {
	l := NewLifetimes(4, false)
	const p = core.PReg(2)
	l.Alloc(p, 5)
	l.Read(p, 8) // speculative consumer; no write ever happened
	l.Free(p, 10)
	if l.Empty.N() != 0 || l.Live.N() != 0 || l.Dead.N() != 0 {
		t.Fatalf("squashed writer recorded a lifetime: empty=%d live=%d dead=%d",
			l.Empty.N(), l.Live.N(), l.Dead.N())
	}
}

// TestLifetimeReuseResetsState re-allocates the same physical register and
// checks the second lifetime is measured from its own events, not polluted
// by the first (Alloc must clear written/lastRead state).
func TestLifetimeReuseResetsState(t *testing.T) {
	l := NewLifetimes(4, false)
	const p = core.PReg(3)
	l.Alloc(p, 0)
	l.Write(p, 2)
	l.Read(p, 100)
	l.Free(p, 110)

	l.Alloc(p, 200)
	l.Write(p, 203)
	l.Free(p, 210) // never read this time
	if n := l.Live.N(); n != 2 {
		t.Fatalf("Live recorded %d lifetimes, want 2", n)
	}
	// Second lifetime: empty 3, live 0 (never read), dead 7. A leaked
	// lastRead=100 from the first lifetime would have produced garbage.
	if got := l.Empty.Count(3); got != 1 {
		t.Errorf("second empty phase of 3 cycles not recorded")
	}
	if got := l.Live.Count(0); got != 1 {
		t.Errorf("second live phase should be 0 (never read); Live histogram: %v", l.Live)
	}
	if got := l.Dead.Count(7); got != 1 {
		t.Errorf("second dead phase of 7 cycles not recorded")
	}
}

// TestLifetimeCountDistsWindow checks the cycle-weighted occupancy sweep:
// one register allocated for [10,30) and written-live for [15,25) inside a
// [0,40) window must yield exactly those interval weights.
func TestLifetimeCountDistsWindow(t *testing.T) {
	l := NewLifetimes(4, true)
	const p = core.PReg(0)
	l.Alloc(p, 10)
	l.Write(p, 15)
	l.Read(p, 25)
	l.Free(p, 30)
	l.Finish(40)

	alloc := l.AllocatedDist()
	if got := alloc.Count(1); got != 20 {
		t.Errorf("allocated count=1 for %d cycles, want 20", got)
	}
	if got := alloc.Count(0); got != 10 {
		t.Errorf("allocated count=0 for %d cycles, want 10 (tail after free)", got)
	}
	live := l.LiveDist()
	if got := live.Count(1); got != 10 {
		t.Errorf("live count=1 for %d cycles, want 10", got)
	}
}
