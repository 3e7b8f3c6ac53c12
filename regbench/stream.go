package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"regcache/internal/explore"
	"regcache/internal/serve"
	"regcache/internal/sim"
)

// The service request stream: design-space sweeps in the style of a
// cache/register-file size exploration. Budgets are small so that a sweep
// costs tens of milliseconds to a second.
const (
	sweepInstsSmall = 20_000
	sweepInstsLarge = 50_000
	exploreInsts    = 20_000
	streamLen       = 1024 // requests generated per seed; runs use a prefix
	blockLen        = 8    // requests per block: each sweep shape once, one exploration
	baselineSpec    = "use:64x2:filtered"
)

// streamClasses split the whole suite for the stream as classBenches
// splits single-run's: mcf costs about three times a branchy benchmark's
// host time per instruction and runs at a third of its IPC, and the
// high-IPC rest cost about half as much again, so which class a request
// meets sets most of its cost and its IPC. Every sweep shape and the
// exploration name benchmarks of fixed classes; the seed deals which
// benchmark of the class from a deck (see dealer). That keeps a run's
// cost and IPC mix, and so its throughput and sim_ipc_hmean, nearly the
// same for every seed.
var streamClasses = map[string][]string{
	classMemory:  classBenches[classMemory],
	classBranchy: classBenches[classBranchy],
	classHighIPC: {"gzip", "bzip2", "gap", "crafty", "eon", "perlbmk", "twolf"},
}

const classHighIPC = "high-IPC" // single-run's loop-heavy three and four more

// request is one generated service request.
type request struct {
	Idx    int
	Kind   string // "sweep" or "explore"
	Body   []byte
	Timed  []byte // the same sweep asking for per-point timings
	Points int    // points requested: benches × schemes, or explore evaluations

	// Sweeps only: each scheme name's family key and the run options.
	Families map[string]string
	Threads  int
	Interval int
}

// sweepMode is one run-option setting for a sweep.
type sweepMode struct{ threads, intervals int }

// archRegs is the architectural register count of one context.
const archRegs = 64

// twoLevelDeadlocks reports the program defect the stream leaves out: a
// two-level file whose L1 holds no more than the contexts' architectural
// registers (archRegs per context) deadlocks after a million cycles and
// the service answers 500, although Scheme.Validate accepts it.
// TestTwoLevelDeadlockBoundary pins this predicate to the defect on both
// sides and fails once the program fixes or refuses these schemes; then
// this predicate and its one caller go.
func twoLevelDeadlocks(l1, threads int) bool { return l1 <= archRegs*max(threads, 1) }

var entryCounts = []int{8, 16, 24, 32, 48, 64, 96, 128, 192, 256}

// familyRuns reports whether a family has any geometry the program can
// run at the thread count (see twoLevelDeadlocks).
func familyRuns(fam string, threads int) bool {
	return fam != "twolevel" || !twoLevelDeadlocks(entryCounts[len(entryCounts)-1], threads)
}

// schemeSpec draws one scheme from a seeded family: the family's spec in
// the single-run pass, or a geometry variant of it. It redraws exactly
// the geometries the program cannot run (see twoLevelDeadlocks); the
// family must satisfy familyRuns.
func schemeSpec(rng *rand.Rand, fam string, threads int) string {
	for {
		entries := entryCounts[rng.Intn(len(entryCounts))]
		ways := []int{1, 2, 4}[rng.Intn(3)]
		switch fam {
		case "mono":
			return fmt.Sprintf("mono:%d", 1+rng.Intn(4))
		case "use":
			return fmt.Sprintf("use:%dx%d:filtered", entries, ways)
		case "lru":
			return fmt.Sprintf("lru:%dx%d", entries, ways)
		case "nb":
			return fmt.Sprintf("nb:%dx%d", entries, ways)
		case "twolevel":
			if l2 := 2 + rng.Intn(2); !twoLevelDeadlocks(entries, threads) {
				return fmt.Sprintf("twolevel:%d:%d", entries, l2)
			}
		case "oracle":
			return fmt.Sprintf("use:%dx%d:filtered:oracle", entries, ways)
		case "port":
			return fmt.Sprintf("port:%dx%d:p%d", entries, ways, 1+rng.Intn(4))
		default:
			panic("unknown family " + fam)
		}
	}
}

// deck deals the items of a list in shuffled rounds, so that over any
// stretch of the stream every item comes up about equally often and the
// stream's cost and IPC mix hardly depend on the seed.
type deck struct {
	rng   *rand.Rand
	items []string
	left  []string // the rest of the current rounds
}

// draw deals the next item that ok accepts, starting a new round when the
// ones left have none; ok must accept some item.
func (d *deck) draw(ok func(string) bool) string {
	for {
		for i, it := range d.left {
			if ok(it) {
				d.left = append(d.left[:i:i], d.left[i+1:]...)
				return it
			}
		}
		round := append([]string(nil), d.items...)
		d.rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		d.left = append(d.left, round...)
	}
}

// dealer holds the stream's decks: benchmarks by class, scheme families.
type dealer struct {
	benches  map[string]*deck
	families *deck
}

func newDealer(rng *rand.Rand) *dealer {
	d := &dealer{benches: make(map[string]*deck), families: &deck{rng: rng, items: streamFamilies}}
	for _, c := range []string{classMemory, classBranchy, classHighIPC} {
		d.benches[c] = &deck{rng: rng, items: streamClasses[c]}
	}
	return d
}

// specFamily maps a spec and thread count to its single-run family key.
func specFamily(spec string, threads int) string {
	kind, _, _ := strings.Cut(spec, ":")
	oracle := strings.HasSuffix(spec, ":oracle")
	switch {
	case threads > 1 && kind == "use" && !oracle:
		return "use_t4"
	case threads > 1:
		return "" // no single-run family runs this kind multithreaded
	case oracle:
		return "oracle"
	}
	return kind
}

var streamFamilies = []string{"mono", "use", "lru", "nb", "twolevel", "oracle", "port"}

// serviceStream generates the seeded request stream. Budgets are divided
// by scale (tests shrink them).
func serviceStream(seed int64, scale uint64) ([]request, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	dl := newDealer(rng)
	cfg := config{scale: scale}
	seen := make(map[string]bool)
	out := make([]request, 0, streamLen)
	for len(out) < streamLen {
		// Each block of 8 requests holds every sweep shape once and one
		// exploration, in a seeded order: the cost mix of any run is the
		// same for every seed, which varies only what each request names.
		order := rng.Perm(len(sweepShapes) + 1)
		// The block's shared benchmarks: the sweeps that name them share
		// their baseline points, as sweeps against one baseline do.
		shared := make(map[string]string)
		for _, c := range []string{classBranchy, classHighIPC} {
			shared[c] = dl.pickBenches([]string{c})[0]
		}
		for _, k := range order {
			var (
				r   request
				err error
			)
			if k == len(sweepShapes) {
				r, err = exploreRequest(rng, dl, cfg)
			} else {
				r, err = sweepRequest(rng, dl, cfg, sweepShapes[k], shared, seen)
			}
			if err != nil {
				return nil, fmt.Errorf("request %d: %w", len(out), err)
			}
			r.Idx = len(out)
			out = append(out, r)
		}
	}
	return out, nil
}

// sweepShape fixes a sweep's size and options; the seed fills in which
// benchmarks and schemes it names.
type sweepShape struct {
	classes  []string // one benchmark of each
	schemes  int
	insts    uint64
	mode     sweepMode
	baseline bool // one of the schemes is the shared baseline
	shared   bool // names the block's shared benchmarks of its classes
}

// sweepShapes are the seven sweeps of a block: 1–2 benchmarks × 1–3
// schemes, mostly 20k instructions, one multithreaded and one
// interval-parallel; four carry the baseline. Three of those name the
// block's shared benchmarks, so the 2×2 sweep repeats the baseline points
// of the 1×2 and 1×3 ones: two of a block's points are repeats, which the
// service coalesces or answers from its memo. The shapes are small, so a
// sweep costs tens to hundreds of milliseconds.
var sweepShapes = []sweepShape{
	{classes: []string{classHighIPC}, schemes: 1, insts: sweepInstsLarge},
	{classes: []string{classBranchy}, schemes: 2, insts: sweepInstsSmall, baseline: true, shared: true},
	{classes: []string{classMemory}, schemes: 1, insts: sweepInstsSmall},
	{classes: []string{classBranchy, classHighIPC}, schemes: 2, insts: sweepInstsSmall, baseline: true, shared: true},
	{classes: []string{classHighIPC}, schemes: 3, insts: sweepInstsSmall, baseline: true, shared: true},
	{classes: []string{classBranchy}, schemes: 2, insts: sweepInstsSmall, mode: sweepMode{threads: 4}, baseline: true},
	{classes: []string{classHighIPC}, schemes: 1, insts: sweepInstsSmall, mode: sweepMode{intervals: 2}},
}

// exploreClasses are the classes of an exploration's two benchmarks.
var exploreClasses = []string{classBranchy, classHighIPC}

// pickBenches deals one benchmark of each class, distinct, in order.
func (d *dealer) pickBenches(classes []string) []string {
	var out []string
	for _, c := range classes {
		out = append(out, d.benches[c].draw(func(b string) bool { return !contains(out, b) }))
	}
	return out
}

// sweepRequest draws a sweep of the given shape with at least one point
// the stream has not requested before.
func sweepRequest(rng *rand.Rand, dl *dealer, cfg config, sh sweepShape, shared map[string]string, seen map[string]bool) (request, error) {
	insts, mode := cfg.insts(sh.insts), sh.mode
	runs := func(fam string) bool { return familyRuns(fam, mode.threads) }
	for attempt := 0; attempt < 100; attempt++ {
		var benches []string
		if sh.shared {
			for _, c := range sh.classes {
				benches = append(benches, shared[c])
			}
		} else {
			benches = dl.pickBenches(sh.classes)
		}
		var specs []string
		if sh.baseline {
			specs = append(specs, baselineSpec)
		}
		for len(specs) < sh.schemes {
			if s := schemeSpec(rng, dl.families.draw(runs), mode.threads); !contains(specs, s) {
				specs = append(specs, s)
			}
		}
		fresh := 0
		for _, b := range benches {
			for _, s := range specs {
				if !seen[pointKey(b, s, insts, mode)] {
					fresh++
				}
			}
		}
		if fresh == 0 {
			continue
		}
		r := request{Kind: "sweep", Points: len(benches) * len(specs), Families: make(map[string]string),
			Threads: mode.threads, Interval: mode.intervals}
		for _, s := range specs {
			sc, err := sim.ParseSchemeSpec(s)
			if err != nil {
				return r, err
			}
			if err := sc.Validate(); err != nil {
				return r, fmt.Errorf("%s: %w", s, err)
			}
			r.Families[sc.Name] = specFamily(s, mode.threads)
			for _, b := range benches {
				seen[pointKey(b, s, insts, mode)] = true
			}
		}
		req := serve.SweepRequest{Benches: benches, Schemes: specs, Insts: insts,
			Threads: mode.threads, Intervals: mode.intervals}
		var err error
		if r.Body, err = json.Marshal(req); err != nil {
			return r, err
		}
		req.Timings = true
		r.Timed, err = json.Marshal(req)
		return r, err
	}
	return request{}, fmt.Errorf("no sweep with a new point in 100 draws")
}

// exploreRequest draws a small successive-halving search over two
// benchmarks: 2 entry counts × 2 associativities of one use-based index
// policy, so 4 candidates over three rungs. (With 2 candidates the
// exploration's latency was mostly time queued behind the other client,
// and its median spread twice as wide between runs.)
func exploreRequest(rng *rand.Rand, dl *dealer, cfg config) (request, error) {
	entries := pickInts(rng, []int{16, 32, 48, 64, 96, 128}, 2)
	ways := pickInts(rng, []int{1, 2, 4}, 2)
	index := pick(rng, []string{"filtered", "preg", "rr"}, 1)
	insts := cfg.insts(exploreInsts)
	req := serve.ExploreRequest{
		Spec: explore.Spec{
			Space:    explore.Space{Entries: explore.Axis{Values: entries}, Ways: explore.Axis{Values: ways}, Index: index},
			Strategy: explore.StrategyHalving,
			Insts:    insts,
			MinInsts: max(insts/4, 1),
			Eta:      2,
		},
		Benches: dl.pickBenches(exploreClasses),
	}
	spec := req.Spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return request{}, err
	}
	cands, _, err := spec.Candidates()
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return request{}, err
	}
	return request{Kind: "explore", Body: body, Timed: body,
		Points: explore.TotalEvals(spec.Plan(len(cands)), len(req.Benches))}, nil
}

func pointKey(bench, spec string, insts uint64, m sweepMode) string {
	return fmt.Sprintf("%s|%s|%d|t%d|k%d", bench, spec, insts, m.threads, m.intervals)
}

// pick draws n distinct elements of xs in a seeded order.
func pick[T any](rng *rand.Rand, xs []T, n int) []T {
	idx := rng.Perm(len(xs))[:n]
	out := make([]T, n)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// pickInts is pick with the result sorted, as explore axes expect.
func pickInts(rng *rand.Rand, xs []int, n int) []int {
	out := pick(rng, xs, n)
	sort.Ints(out)
	return out
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
