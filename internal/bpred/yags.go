// Package bpred implements the front-end prediction structures of Table 1:
// a YAGS conditional branch predictor, a cascading indirect-target
// predictor, and a return address stack. The BTB is perfect (the front end
// knows each branch's static target), matching the paper's configuration.
package bpred

// YAGS (Yet Another Global Scheme, Eden & Mudge 1998) splits a choice PHT
// from two small tagged direction caches. The choice table records the
// branch's bias; the direction caches record only the exceptions to that
// bias, tagged to avoid aliasing. The configuration below fits the 12 KB
// budget in Table 1: an 8K-entry choice table (2 KB) plus two 4K-entry
// direction caches with 8-bit tags and 2-bit counters (2×5 KB).
type YAGS struct {
	history  uint64
	histBits uint

	choice []uint8 // 2-bit bias counters, indexed by PC

	// Exception caches, indexed by PC^history, tagged by PC low bits.
	takenCache    []dirEntry // consulted when choice says not-taken
	notTakenCache []dirEntry // consulted when choice says taken
}

type dirEntry struct {
	tag   uint16
	ctr   uint8 // 2-bit saturating direction counter
	valid bool
}

// YAGSConfig sizes the predictor. Zero values select the Table 1 defaults.
type YAGSConfig struct {
	ChoiceEntries int  // power of two; default 8192
	CacheEntries  int  // power of two; default 4096
	HistoryBits   uint // default 12
}

// NewYAGS builds a YAGS predictor.
func NewYAGS(cfg YAGSConfig) *YAGS {
	if cfg.ChoiceEntries == 0 {
		cfg.ChoiceEntries = 8192
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 4096
	}
	if cfg.HistoryBits == 0 {
		cfg.HistoryBits = 12
	}
	y := &YAGS{
		histBits:      cfg.HistoryBits,
		choice:        make([]uint8, cfg.ChoiceEntries),
		takenCache:    make([]dirEntry, cfg.CacheEntries),
		notTakenCache: make([]dirEntry, cfg.CacheEntries),
	}
	// Weakly taken initial bias: loop back edges dominate.
	for i := range y.choice {
		y.choice[i] = 2
	}
	return y
}

// pcIndex hashes a PC into a table of the given size.
func pcIndex(pc uint64, size int) int {
	return int((pc >> 2) & uint64(size-1))
}

func (y *YAGS) cacheIndex(pc uint64) int {
	return int(((pc >> 2) ^ y.history) & uint64(len(y.takenCache)-1))
}

func tagOf(pc uint64) uint16 { return uint16(pc>>2) & 0xff }

// Predict returns the predicted direction for a conditional branch at pc.
func (y *YAGS) Predict(pc uint64) bool {
	biasTaken := y.choice[pcIndex(pc, len(y.choice))] >= 2
	idx, tag := y.cacheIndex(pc), tagOf(pc)
	if biasTaken {
		if e := &y.notTakenCache[idx]; e.valid && e.tag == tag {
			return e.ctr >= 2
		}
		return true
	}
	if e := &y.takenCache[idx]; e.valid && e.tag == tag {
		return e.ctr >= 2
	}
	return false
}

// History returns the current global history register (used by the degree
// of use predictor's future-control-flow signature and by checkpointing).
func (y *YAGS) History() uint64 { return y.history }

// SetHistory restores the history register (misprediction recovery).
func (y *YAGS) SetHistory(h uint64) { y.history = h }

// UpdateHistory speculatively shifts a predicted direction into the global
// history. The front end calls this for every conditional branch fetched;
// recovery rewinds it via SetHistory.
func (y *YAGS) UpdateHistory(taken bool) {
	bit := uint64(0)
	if taken {
		bit = 1
	}
	y.history = ((y.history << 1) | bit) & ((1 << y.histBits) - 1)
}

// Train updates the tables with the resolved direction of the branch at pc.
// histAtPredict must be the global history value observed when the
// prediction was made (the pipeline checkpoints it per branch).
func (y *YAGS) Train(pc uint64, histAtPredict uint64, taken bool) {
	ci := pcIndex(pc, len(y.choice))
	biasTaken := y.choice[ci] >= 2
	idx := int(((pc >> 2) ^ histAtPredict) & uint64(len(y.takenCache)-1))
	tag := tagOf(pc)

	// The exception cache opposite the bias is updated when it hits, or
	// allocated when the bias mispredicts.
	var cache []dirEntry
	if biasTaken {
		cache = y.notTakenCache
	} else {
		cache = y.takenCache
	}
	e := &cache[idx]
	hit := e.valid && e.tag == tag
	if hit {
		e.ctr = bump(e.ctr, taken)
	} else if taken != biasTaken {
		*e = dirEntry{tag: tag, valid: true, ctr: initCtr(taken)}
	}

	// The choice counter trains toward the outcome, except that it is not
	// weakened when the exception cache already covers this branch
	// correctly (standard YAGS partial update).
	if !(hit && (e.ctr >= 2) == taken && taken != biasTaken) {
		y.choice[ci] = bump(y.choice[ci], taken)
	}
}

func bump(c uint8, up bool) uint8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

func initCtr(taken bool) uint8 {
	if taken {
		return 2
	}
	return 1
}
