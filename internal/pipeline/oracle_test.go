package pipeline

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"regcache/internal/prog"
)

// TestOracleUses: perfect use knowledge must not be worse than the
// history-based predictor — fewer misses on the same cache.
func TestOracleUses(t *testing.T) {
	prof, _ := prog.ProfileByName("twolf")
	p := prog.MustGenerate(prof)
	cfg := DefaultConfig()
	pred := New(cfg, p).Run(60_000)
	cfg.OracleUses = true
	orac := New(cfg, p).Run(60_000)
	t.Logf("predicted: miss %.4f IPC %.3f; oracle: miss %.4f IPC %.3f",
		pred.Cache.MissRate(), pred.IPC, orac.Cache.MissRate(), orac.IPC)
	if orac.Cache.MissRate() > pred.Cache.MissRate()*1.1 {
		t.Errorf("oracle misses (%.4f) materially exceed predicted (%.4f)",
			orac.Cache.MissRate(), pred.Cache.MissRate())
	}
	// Determinism under the oracle too.
	orac2 := New(cfg, p).Run(60_000)
	if orac2.Stats.Cycles != orac.Stats.Cycles {
		t.Error("oracle mode not deterministic")
	}
}

// goldenOracleTables pins the SHA-256 of BuildOracle's use table at 200k
// instructions, captured from the pre-pass before it moved onto the
// committed functional walk. The table is a pure function of (program,
// budget), so any drift is a functional-model regression.
var goldenOracleTables = map[string]string{
	"gzip": "3a57c3f8650c30fbe71ec9d0cf6540f203129b1e5bc358e64b518d427639b060",
	"gcc":  "5e180d6c39369b7add04ac3415acb74b83ab4641d2f9875566aad094e6d21025",
	"mcf":  "623be65b1c1dfd43261c520db1352997e978f277b2e0ed7568ba10968df837d6",
}

func TestOracleTableGolden(t *testing.T) {
	for bench, want := range goldenOracleTables {
		tab := BuildOracle(mustProgram(t, bench), 200_000)
		if got := fmt.Sprintf("%x", sha256.Sum256(tab.uses)); got != want {
			t.Errorf("%s: oracle table drifted (%d defs):\n got %s\nwant %s", bench, len(tab.uses), got, want)
		}
	}
}
