package usepred

import (
	"testing"

	"regcache/internal/isa"
	"regcache/internal/prog"
)

func TestColdPredictorDeclines(t *testing.T) {
	p := New(Config{})
	if _, ok := p.Predict(0x1000, 0); ok {
		t.Fatal("cold predictor should not supply a prediction")
	}
}

func TestLearnsStableDegree(t *testing.T) {
	p := New(Config{})
	for i := 0; i < 5; i++ {
		p.Train(0x1000, 7, 2)
	}
	got, ok := p.Predict(0x1000, 7)
	if !ok || got != 2 {
		t.Fatalf("predict = %d,%v, want 2,true", got, ok)
	}
}

func TestSignatureDistinguishesPaths(t *testing.T) {
	// Same PC, two signatures with different degrees: both must be learned
	// independently (this is the point of the control-flow signature).
	p := New(Config{})
	for i := 0; i < 5; i++ {
		p.Train(0x2000, 1, 1)
		p.Train(0x2000, 2, 3)
	}
	if got, ok := p.Predict(0x2000, 1); !ok || got != 1 {
		t.Errorf("sig 1: predict = %d,%v, want 1", got, ok)
	}
	if got, ok := p.Predict(0x2000, 2); !ok || got != 3 {
		t.Errorf("sig 2: predict = %d,%v, want 3", got, ok)
	}
}

func TestConfidenceHysteresis(t *testing.T) {
	p := New(Config{})
	for i := 0; i < 4; i++ {
		p.Train(0x3000, 0, 1) // confidence saturates at 3
	}
	// One contrary observation decays confidence but keeps the prediction.
	p.Train(0x3000, 0, 5)
	if got, ok := p.Predict(0x3000, 0); !ok || got != 1 {
		t.Fatalf("after one outlier: predict = %d,%v, want 1 (retained)", got, ok)
	}
	// Sustained contrary observations eventually replace it.
	for i := 0; i < 5; i++ {
		p.Train(0x3000, 0, 5)
	}
	if got, ok := p.Predict(0x3000, 0); !ok || got != 5 {
		t.Fatalf("after sustained change: predict = %d,%v, want 5", got, ok)
	}
}

func TestSaturatesAt4Bits(t *testing.T) {
	p := New(Config{})
	for i := 0; i < 5; i++ {
		p.Train(0x4000, 0, 1000)
	}
	got, ok := p.Predict(0x4000, 0)
	if !ok || got != 15 {
		t.Fatalf("predict = %d,%v, want saturated 15", got, ok)
	}
}

func TestReplacementPrefersLRU(t *testing.T) {
	// Fill one set beyond capacity with distinct tags; the oldest entry is
	// evicted while recently touched ones survive.
	p := New(Config{Entries: 8, Ways: 4})
	// All these PCs map to set 0 of 2 sets (index = pc>>2 & 1).
	pcs := []uint64{0x0 << 13, 0x1 << 13, 0x2 << 13, 0x3 << 13} // distinct tag bits
	for i, pc := range pcs {
		for j := 0; j < 3; j++ {
			p.Train(pc<<0, 0, i+1)
		}
	}
	// Touch the first three, then insert a fifth mapping to the same set.
	for _, pc := range pcs[1:] {
		p.Predict(pc, 0)
	}
	p.Train(uint64(0x4<<13), 0, 9)
	if _, ok := p.Predict(pcs[0], 0); ok {
		t.Error("LRU entry should have been evicted")
	}
	if got, ok := p.Predict(pcs[1], 0); !ok || got != 2 {
		t.Errorf("recently used entry lost: %d,%v", got, ok)
	}
}

func TestAccuracyAndCoverageCounters(t *testing.T) {
	p := New(Config{})
	p.Train(0x5000, 0, 2)
	p.Train(0x5000, 0, 2) // matches prior prediction → Correct++
	if p.Accuracy() != 0.5 {
		t.Errorf("accuracy = %v, want 0.5 (1 of 2 trainings matched)", p.Accuracy())
	}
	p.Predict(0x5000, 0)
	p.Predict(0x9999000, 0)
	if p.Coverage() != 0.5 {
		t.Errorf("coverage = %v, want 0.5", p.Coverage())
	}
}

// End-to-end: on a generated workload, measure architectural degree-of-use
// predictability the same way the pipeline will use it (predict at def,
// train at redefinition). The paper reports ~97% average accuracy; the
// synthetic suite should be in that neighbourhood.
func TestAccuracyOnGeneratedWorkload(t *testing.T) {
	prof, _ := prog.ProfileByName("gzip")
	pg := prog.MustGenerate(prof)
	e := prog.NewExec(pg)
	p := New(Config{})

	type defInfo struct {
		pc    uint64
		sig   uint64
		reads int
		live  bool
	}
	var defs [isa.NumArchRegs]defInfo
	var hist uint64

	var predicted, correct uint64
	const steps = 300_000
	n := e.Walk(steps, func(in *isa.Inst, s prog.Step) {
		for _, r := range [...]isa.Reg{in.Src1, in.Src2} {
			if r != isa.RegNone && !r.IsZeroReg() {
				defs[r.Index()].reads++
			}
		}
		if in.HasDest() {
			d := &defs[in.Dest.Index()]
			if d.live {
				// Redefinition: train, and score the prediction made at def.
				if pred, ok := p.Predict(d.pc, d.sig); ok {
					predicted++
					actual := d.reads
					if actual > 15 {
						actual = 15
					}
					if int(pred) == actual {
						correct++
					}
				}
				p.Train(d.pc, d.sig, d.reads)
			}
			*d = defInfo{pc: in.PC, sig: hist, reads: 0, live: true}
		}
		if in.Op.IsCond() {
			hist = (hist << 1) | b2u(s.Taken)
		}
	})
	if n != steps {
		t.Fatalf("execution fell off code after %d of %d steps", n, steps)
	}
	if predicted < 1000 {
		t.Fatalf("too few predictions scored: %d", predicted)
	}
	acc := float64(correct) / float64(predicted)
	t.Logf("gzip: degree-of-use accuracy %.3f over %d predictions", acc, predicted)
	if acc < 0.85 {
		t.Errorf("accuracy %.3f too low (paper reports ~0.97)", acc)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
