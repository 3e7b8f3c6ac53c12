package pipeline

import (
	"math/bits"

	"regcache/internal/obs"
)

// Event-driven wakeup and age-ordered select.
//
// At rename every source whose in-flight producer has not begun executing
// links the consumer onto that producer's wake list and raises the
// consumer's pending count. beginExecution, the only way into uExecuting,
// walks the list: each consumer's count drops, and a consumer that
// reaches zero while in the issue window gets its candidate bit. Select
// then visits only candidate bits, oldest first.
//
// The candidate bitmap is indexed by pl.iq position, so bit order is age
// order — the order the window has always been scanned in. A bit means
// "could be ready", never "ready now": readiness is not monotonic once a
// producer executes (a monolithic file leaves a 2L-2 cycle hole after the
// bypass window, and a load's latency changes when its miss becomes
// visible at missKnownAt), so operandPlan stays the only judge and the
// bitmap is a superset filter in front of it. The superset invariant —
// every uop in uInIQ has its bit set exactly when pending == 0 — is what
// makes select issue exactly what a full-window walk would.

// wakeNode is one consumer waiting for a producer to begin executing.
// Nodes come from a per-pipeline pool and link by index, with index 0
// reserved as the nil link so a freshly zeroed uop has an empty list. The
// consumer reference is seq-guarded: a consumer squashed while its
// producer still waits is recycled for a newer instruction, and the stale
// node must not touch the new owner.
type wakeNode struct {
	u    *uop
	seq  uint64
	next int32
}

// linkWake makes consumer c wait for producer p to begin executing.
func (pl *Pipeline) linkWake(p, c *uop) {
	n := pl.wakeFree
	if n == 0 {
		pl.wakeNodes = append(pl.wakeNodes, wakeNode{})
		n = int32(len(pl.wakeNodes) - 1)
	} else {
		pl.wakeFree = pl.wakeNodes[n].next
	}
	pl.wakeNodes[n] = wakeNode{u: c, seq: c.seq, next: p.wakeHead}
	p.wakeHead = n
	c.pending++
}

// wakeConsumers releases p's wake list as p begins executing: every live
// consumer loses one pending source, and one that reaches zero inside the
// issue window becomes a select candidate (one still in the front end
// gets its bit at dispatch). A squashed producer releases its list the
// same way: its consumers are younger in the same context, so recovery
// has squashed them first and the walk only returns nodes to the pool.
func (pl *Pipeline) wakeConsumers(p *uop) {
	for n := p.wakeHead; n != 0; {
		w := &pl.wakeNodes[n]
		if c := w.u; c.seq == w.seq {
			c.pending--
			if c.pending == 0 && c.state == uInIQ {
				pl.setCandidate(c.iqPos)
			}
		}
		next := w.next
		*w = wakeNode{next: pl.wakeFree}
		pl.wakeFree = n
		n = next
	}
	p.wakeHead = 0
}

// setCandidate marks window slot pos as a select candidate.
func (pl *Pipeline) setCandidate(pos int32) {
	pl.candidates[pos>>6] |= 1 << (pos & 63)
}

// enterWindow appends u to the issue window, growing the bitmap by a word
// when the slot crosses into one, and marks it a candidate when none of
// its producers is still waiting to execute.
func (pl *Pipeline) enterWindow(u *uop) {
	pos := int32(len(pl.iq))
	pl.iq = append(pl.iq, uopRef{u: u, seq: u.seq})
	u.iqPos = pos
	if int(pos>>6) == len(pl.candidates) {
		pl.candidates = append(pl.candidates, 0)
	}
	if u.pending == 0 {
		pl.setCandidate(pos)
	}
}

// issue selects up to IssueWidth ready instructions, oldest first, subject
// to function-unit availability. Only candidate slots are visited; each is
// still checked for staleness, a free function unit and issuable, exactly
// as a walk of the whole window would. Issue is suppressed entirely in a
// cycle that detected a register cache miss (the paper's replay rule:
// everything issued in the cycle after a missing instruction issues is
// replayed).
func (pl *Pipeline) issue() {
	if pl.suppressIssue {
		pl.Stats.SuppressedIssueCycles++
		return
	}
	pl.fuUsed = [numFUClasses]int{}
	issued := 0
	width := pl.cfg.IssueWidth
	for w := 0; w < len(pl.candidates) && issued < width; w++ {
		for word := pl.candidates[w]; word != 0 && issued < width; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			e := pl.iq[w<<6|b]
			u := e.u
			if u == nil || u.seq != e.seq || u.state != uInIQ {
				pl.candidates[w] &^= 1 << b // stale slot: issued, squashed, or recycled
				continue
			}
			cls := classOf(u.inst.Op)
			if pl.fuUsed[cls] >= pl.fuCap[cls] {
				continue
			}
			if !pl.issuable(u) {
				continue
			}
			pl.candidates[w] &^= 1 << b
			pl.fuUsed[cls]++
			u.state = uIssued
			u.issueCycle = pl.now
			pl.issuedNow = append(pl.issuedNow, u)
			if pl.tracer != nil {
				pl.tracePipe(u, obs.StageIssue, pl.now)
			}
			issued++
		}
	}
	pl.Stats.Issued += uint64(issued)
	if len(pl.iq) > pl.iqCount*2+32 {
		pl.compactIQ()
	}
}

// compactIQ removes entries that left the window and rebuilds the
// candidate bitmap and every survivor's slot index to match.
func (pl *Pipeline) compactIQ() {
	live := pl.iq[:0]
	clear(pl.candidates)
	for _, e := range pl.iq {
		u := e.u
		if u == nil || u.seq != e.seq || (u.state != uInIQ && u.state != uIssued) {
			continue
		}
		u.iqPos = int32(len(live))
		if u.state == uInIQ && u.pending == 0 {
			pl.setCandidate(u.iqPos)
		}
		live = append(live, e)
	}
	for i := len(live); i < len(pl.iq); i++ {
		pl.iq[i] = uopRef{} // drop stale references
	}
	pl.iq = live
	pl.candidates = pl.candidates[:(len(live)+63)>>6]
}
