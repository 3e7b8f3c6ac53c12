package usepred

import (
	"fmt"
	"testing"
)

// TestTrainPredictRoundTrip trains every representable degree of use at a
// distinct PC and reads each back: one train establishes the entry at
// confidence 1, which meets the default ConfMin, so the prediction must be
// supplied and exact across the whole 4-bit range.
func TestTrainPredictRoundTrip(t *testing.T) {
	for _, cfg := range []Config{
		{},                                   // Table 1 defaults
		{Entries: 256, Ways: 2},              // small and shallow
		{Entries: 64, Ways: 1},               // direct-mapped
		{Entries: 4096, Ways: 4, SigBits: 6}, // full-signature variant
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("e%dw%d", cfg.Entries, cfg.Ways), func(t *testing.T) {
			p := New(cfg)
			const sig = 0x5
			// Distinct set per count: stride by one set (4 bytes << nothing;
			// index uses pc>>2, so stride 4 advances one set).
			pc := func(count int) uint64 { return 0x1000 + uint64(count)*4 }
			for c := 0; c <= 15; c++ {
				p.Train(pc(c), sig, c)
			}
			for c := 0; c <= 15; c++ {
				got, ok := p.Predict(pc(c), sig)
				if !ok {
					t.Errorf("count %d: no confident prediction after training", c)
					continue
				}
				if int(got) != c {
					t.Errorf("count %d: predicted %d", c, got)
				}
			}
		})
	}
}

// TestTrainSaturation checks that out-of-range training values clamp to the
// configured saturation point rather than wrapping the 4-bit counter.
func TestTrainSaturation(t *testing.T) {
	cases := []struct {
		cfg    Config
		actual int
		want   uint8
	}{
		{Config{}, 15, 15},
		{Config{}, 16, 15},
		{Config{}, 1000, 15},
		{Config{MaxCount: 7}, 8, 7},
		{Config{MaxCount: 7}, 7, 7},
		{Config{MaxCount: 3}, 200, 3},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("max%d_actual%d", tc.cfg.withDefaults().MaxCount, tc.actual), func(t *testing.T) {
			p := New(tc.cfg)
			const pc, sig = 0x2000, 0x1
			p.Train(pc, sig, tc.actual)
			got, ok := p.Predict(pc, sig)
			if !ok {
				t.Fatalf("no prediction after training")
			}
			if got != tc.want {
				t.Errorf("Predict = %d, want %d (actual %d)", got, tc.want, tc.actual)
			}
		})
	}
}

// TestTagAliasing demonstrates the destructive aliasing the 6-bit partial
// tags admit: two producers whose PCs agree in the index and tag bits but
// differ above them are indistinguishable, so the second's training
// overwrites the first's entry. This is a modeled property of the Table 1
// configuration (finite tags), not a bug — the test pins the behaviour so
// an accidental change to the hash widths shows up.
func TestTagAliasing(t *testing.T) {
	p := New(Config{}) // 4096/4 = 1024 sets: index = pc[2..11], tag = pc[12..17]
	const sig = 0x3
	pcA := uint64(0x1000)
	pcB := pcA + (1 << 18) // differs only above the tag bits -> same entry
	pcC := pcA + (1 << 12) // differs inside the tag bits -> distinct entry

	p.Train(pcA, sig, 4)
	if got, ok := p.Predict(pcB, sig); !ok || got != 4 {
		t.Fatalf("aliased PC %#x: got (%d,%v), want pcA's entry (4,true)", pcB, got, ok)
	}

	// Retraining through the alias with a different count perturbs pcA's
	// entry (first mismatch decays confidence; second rewrites).
	p.Train(pcB, sig, 9)
	p.Train(pcB, sig, 9)
	if got, ok := p.Predict(pcA, sig); ok && got == 4 {
		t.Fatalf("pcA still predicts 4 after aliased retraining; tags wider than modeled?")
	}

	// A PC differing within the tag bits must NOT alias.
	p.Train(pcC, sig, 2)
	p.Train(pcA, sig, 4)
	p.Train(pcA, sig, 4)
	if got, ok := p.Predict(pcC, sig); !ok || got != 2 {
		t.Errorf("distinct-tag PC %#x: got (%d,%v), want (2,true)", pcC, got, ok)
	}
}

// TestSignatureBitsMask checks that only the configured low signature bits
// participate in matching: histories differing above SigBits share an
// entry, histories differing within it do not.
func TestSignatureBitsMask(t *testing.T) {
	p := New(Config{SigBits: 3})
	const pc = 0x3000
	p.Train(pc, 0b001, 5)
	if got, ok := p.Predict(pc, 0b111_001); !ok || got != 5 {
		t.Errorf("signature masked to 3 bits should match: got (%d,%v)", got, ok)
	}
	if _, ok := p.Predict(pc, 0b010); ok {
		t.Errorf("signature differing in low bits matched")
	}
}

// TestConfidenceThreshold drives the decay path: a mismatch first lowers
// confidence below a ConfMin=2 threshold (prediction withheld), and
// repeated agreement restores it.
func TestConfidenceThreshold(t *testing.T) {
	p := New(Config{ConfMin: 2, ConfMax: 3})
	const pc, sig = 0x4000, 0x0
	p.Train(pc, sig, 6)
	if _, ok := p.Predict(pc, sig); ok {
		t.Fatalf("conf=1 entry supplied a prediction with ConfMin=2")
	}
	p.Train(pc, sig, 6) // conf 2
	if got, ok := p.Predict(pc, sig); !ok || got != 6 {
		t.Fatalf("conf=2 entry withheld: got (%d,%v)", got, ok)
	}
	p.Train(pc, sig, 1) // mismatch: conf 2 -> 1
	if _, ok := p.Predict(pc, sig); ok {
		t.Fatalf("decayed entry still confident")
	}
	p.Train(pc, sig, 6) // conf 1 and pred still 6: mismatch path rewrites only at conf<=1
	p.Train(pc, sig, 6)
	if got, ok := p.Predict(pc, sig); !ok || got != 6 {
		t.Fatalf("entry did not recover: got (%d,%v)", got, ok)
	}
}

// TestStatsCounters pins the Lookups/Hits/TrainEvents/Correct bookkeeping
// the pipeline's Accuracy/Coverage results are computed from.
func TestStatsCounters(t *testing.T) {
	p := New(Config{})
	const pc, sig = 0x5000, 0x2
	p.Predict(pc, sig)  // miss
	p.Train(pc, sig, 3) // allocate
	p.Predict(pc, sig)  // confident hit
	p.Train(pc, sig, 3) // correct
	p.Train(pc, sig, 4) // incorrect
	if p.Lookups != 2 || p.Hits != 1 {
		t.Errorf("Lookups/Hits = %d/%d, want 2/1", p.Lookups, p.Hits)
	}
	if p.TrainEvents != 3 || p.Correct != 1 {
		t.Errorf("TrainEvents/Correct = %d/%d, want 3/1", p.TrainEvents, p.Correct)
	}
	if acc := p.Accuracy(); acc <= 0.33 || acc >= 0.34 {
		t.Errorf("Accuracy = %v, want 1/3", acc)
	}
	if cov := p.Coverage(); cov != 0.5 {
		t.Errorf("Coverage = %v, want 0.5", cov)
	}
	empty := New(Config{})
	if empty.Accuracy() != 0 || empty.Coverage() != 0 {
		t.Errorf("empty predictor reports nonzero accuracy/coverage")
	}
}
