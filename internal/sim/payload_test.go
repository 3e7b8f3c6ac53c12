package sim

// Tests for the binary store payload codec: equivalence with the JSON
// round trip it replaced, the pinned layout, rejection of malformed input,
// stores written under the JSON layout, and the fuzzed re-encoding
// property.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"regcache/internal/core"
	"regcache/internal/pipeline"
)

// payloadLayoutHashes pins the layout hash of each StorePayloadVersion
// (see payloadLayout). A change to the shape of RunRecord or
// pipeline.Result changes the hash: bump StorePayloadVersion and pin the
// new hash under it, so stores of the old layout miss instead of
// decoding into the wrong fields.
var payloadLayoutHashes = map[int]string{
	2: "5faefb26ea422563",
}

// payloadLayout lists every field path the codec walks with its kind, one
// per line, in encoding order.
func payloadLayout(c *payloadCodec, path string, w io.Writer) {
	kind := c.kind.String()
	if c.kind == reflect.Array {
		kind = fmt.Sprintf("array[%d]", c.typ.Len())
	}
	fmt.Fprintf(w, "%s %s\n", path, kind)
	switch c.kind {
	case reflect.Array, reflect.Slice:
		payloadLayout(c.elem, path+"[]", w)
	case reflect.Pointer:
		payloadLayout(c.elem, path+"*", w)
	case reflect.Struct:
		for _, f := range c.fields {
			payloadLayout(f.codec, path+"."+c.typ.Field(f.index).Name, w)
		}
	}
}

func TestStorePayloadLayoutPinned(t *testing.T) {
	var layout strings.Builder
	payloadLayout(storedPayloadCodec, "storedResult", &layout)
	sum := sha256.Sum256([]byte(layout.String()))
	got := hex.EncodeToString(sum[:8])
	if want := payloadLayoutHashes[StorePayloadVersion]; got != want {
		t.Fatalf("store payload layout hash %s, pinned %q for StorePayloadVersion %d.\n"+
			"The shape of RunRecord or pipeline.Result changed: bump StorePayloadVersion and pin the new hash.\nLayout:\n%s",
			got, want, StorePayloadVersion, layout.String())
	}
}

// payloadCase is one simulated point of the payload tests.
type payloadCase struct {
	name  string
	bench string
	s     Scheme
	o     Options
}

func payloadCases() []payloadCase {
	use := UseBased(64, 2, core.IndexFilteredRR)
	oracle := use
	oracle.Name, oracle.OracleUses = "use-oracle", true
	return []payloadCase{
		{"mono", "gzip", Monolithic(3), Options{Insts: 3000}},
		{"use", "gzip", use, Options{Insts: 3000}},
		{"lru", "vpr", LRU(64, 2, core.IndexRoundRobin), Options{Insts: 3000}},
		{"twolevel", "mcf", TwoLevel(96, 2), Options{Insts: 3000}},
		{"oracle", "gzip", oracle, Options{Insts: 3000}},
		{"threads4", "gzip", use, Options{Insts: 3000, Threads: 4}},
		{"k2", "vpr", use, Options{Insts: 6000, Intervals: 2, WarmupInsts: 500}},
	}
}

// jsonRoundTrip is what the JSON payload path returned for v.
func jsonRoundTrip[T any](t *testing.T, v T) T {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStoredPayloadMatchesJSONRoundTrip: for every scheme family, the
// per-context block and the interval block, a binary round trip returns
// exactly what the JSON round trip returned (unexported core.Stats scratch
// fields dropped by both), so every document built from a store hit is
// byte-identical to one built from a fresh simulation.
func TestStoredPayloadMatchesJSONRoundTrip(t *testing.T) {
	wc := NewWorkloadCache()
	for _, c := range payloadCases() {
		res, err := ExecuteWith(wc, c.bench, c.s, c.o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		switch {
		case c.o.Threads > 1 && len(res.Threads) != c.o.Threads:
			t.Fatalf("%s: %d thread blocks", c.name, len(res.Threads))
		case c.o.Intervals > 1 && res.Intervals == nil:
			t.Fatalf("%s: no interval block", c.name)
		}
		rec, got, err := DecodeStoredPayload(EncodeStoredPayload(c.bench, c.s, c.o, res))
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if want := jsonRoundTrip(t, res); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: binary round trip differs from JSON's:\n got %+v\nwant %+v", c.name, got, want)
		}
		if want := jsonRoundTrip(t, NewRunRecord(c.bench, c.s, c.o, res)); !reflect.DeepEqual(rec, want) {
			t.Errorf("%s: record round trip differs from JSON's:\n got %+v\nwant %+v", c.name, rec, want)
		}
		d1, _ := json.Marshal(NewRunRecord(c.bench, c.s, c.o, res))
		d2, _ := json.Marshal(NewRunRecord(c.bench, c.s, c.o, got))
		if !bytes.Equal(d1, d2) {
			t.Errorf("%s: run record from the decoded result differs:\n%s\n%s", c.name, d1, d2)
		}
	}
}

// fillPayload sets every exported leaf under v to a distinct non-zero
// value (negative for signed kinds), every slice to two elements and every
// pointer to a new value, so a dropped or misplaced field shows.
func fillPayload(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-int64(*n % 100))
	case reflect.Uint8:
		v.SetUint(uint64(*n%200 + 1))
	case reflect.Uint, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n) * 1000003)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.1)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillPayload(v.Index(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fillPayload(v.Index(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillPayload(v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillPayload(v.Field(i), n)
			}
		}
	}
}

func TestStoredPayloadEveryField(t *testing.T) {
	var sr storedResult
	n := 0
	fillPayload(reflect.ValueOf(&sr).Elem(), &n)
	data := encodePayload(&sr)
	var got storedResult
	if err := decodePayload(data, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if want := jsonRoundTrip(t, sr); !reflect.DeepEqual(got, want) {
		t.Errorf("filled payload did not round-trip:\n got %+v\nwant %+v", got, want)
	}
	if re := encodePayload(&got); !bytes.Equal(re, data) {
		t.Error("re-encoding a decoded payload changed its bytes")
	}
}

// TestStoredPayloadNilVersusEmpty: nil and empty slices stay distinct, so
// IntervalCycles prints null or [] exactly as the JSON path did.
func TestStoredPayloadNilVersusEmpty(t *testing.T) {
	for _, cycles := range [][]uint64{nil, {}} {
		res := pipeline.Result{Intervals: &pipeline.IntervalStats{K: 1, IntervalCycles: cycles}}
		_, got, err := DecodeStoredPayload(EncodeStoredPayload("gzip", Monolithic(3), Options{}, res))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(res)
		have, _ := json.Marshal(got)
		if !bytes.Equal(want, have) {
			t.Errorf("IntervalCycles %#v: got %s, want %s", cycles, have, want)
		}
	}
}

// TestStoredPayloadRejectsMalformed: every strict prefix, a trailing
// byte, out-of-range bools, pointer tags and narrow integers, non-minimal
// varints and oversized lengths are errors, never a panic.
func TestStoredPayloadRejectsMalformed(t *testing.T) {
	res, err := ExecuteWith(NewWorkloadCache(), "gzip", UseBased(64, 2, core.IndexFilteredRR), Options{Insts: 2000})
	if err != nil {
		t.Fatal(err)
	}
	data := EncodeStoredPayload("gzip", UseBased(64, 2, core.IndexFilteredRR), Options{Insts: 2000}, res)
	for i := 0; i < len(data); i++ {
		if _, _, err := DecodeStoredPayload(data[:i]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", i, len(data))
		}
	}
	if _, _, err := DecodeStoredPayload(append(data[:len(data):len(data)], 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: %v", err)
	}

	type small struct {
		B bool
		U uint8
		P *int
		S []uint64
	}
	codec := newPayloadCodec(reflect.TypeOf(small{}))
	decode := func(data []byte) error {
		var v small
		d := payloadDecoder{data: data}
		codec.decode(&d, reflect.ValueOf(&v).Elem())
		return d.err
	}
	huge := binary.AppendUvarint([]byte{0, 0, 0}, 1<<20+1)
	for name, in := range map[string][]byte{
		"bool byte 2":       {2, 0, 0, 0},
		"uint8 overflow":    {0, 0x80, 0x02, 0, 0},
		"pointer byte 2":    {0, 0, 2, 0},
		"non-minimal":       {0, 0x80, 0x00, 0, 0},
		"oversized length":  huge,
		"length past input": {0, 0, 0, 4, 1, 2},
	} {
		if err := decode(in); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	if err := decode([]byte{1, 7, 1, 0x02, 3, 1, 2}); err != nil {
		t.Errorf("valid small payload: %v", err)
	}
	// An oversized length is refused before the slice (8 MiB here) is
	// allocated.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = decode(huge)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 4096 {
		t.Errorf("oversized length: decode allocated %d bytes, want only its error", n)
	}
}

// TestStoreWrittenUnderJSONPayloadMisses opens a store directory written
// with version 1 (JSON) payloads: it opens cleanly, its entries are
// misses — not corrupt — and are re-simulated next to the old records.
func TestStoreWrittenUnderJSONPayloadMisses(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join("testdata", "store-payload-v1", "seg-00000001.rcs"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.rcs"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	rs := openTestStore(t, dir)
	defer rs.Close()
	st := rs.Store()
	if st.Len() != 2 {
		t.Fatalf("old store holds %d entries, want 2", st.Len())
	}
	for _, info := range st.Entries() {
		val, err := st.Get(info.Key)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeStoredPayload(val); !errors.Is(err, ErrStalePayload) {
			t.Errorf("old entry: %v, want ErrStalePayload", err)
		}
	}

	jobs := []Job{
		{Scheme: UseBased(16, 2, core.IndexFilteredRR), Bench: "gzip", Opts: Options{Insts: 2000}},
		{Scheme: Monolithic(3), Bench: "mcf", Opts: Options{Insts: 2000}},
	}
	for _, j := range jobs {
		if _, status := rs.Get(j); status != StoreGetMiss {
			t.Errorf("%s: status %d, want a miss", j.Key(), status)
		}
	}
	r := NewRunnerWith(1, NewWorkloadCache())
	if err := r.UseStore(rs); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := r.Run(context.Background(), j.Bench, j.Scheme, j.Opts); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	if s := r.Stats(); s.JobsRun != 2 || s.StoreHits != 0 || s.StoreCorrupt != 0 {
		t.Errorf("old entries must re-simulate as misses: %+v", s)
	}
	if st.Len() != 4 {
		t.Errorf("store holds %d entries after re-simulation, want 4 (old keys never match)", st.Len())
	}
}

// FuzzStoredPayload: arbitrary bytes either fail to decode or decode to a
// payload whose re-encoding is exactly the input, and nothing panics. The
// seeds are payloads of a serial run, a four-context run and a two-interval
// run.
func FuzzStoredPayload(f *testing.F) {
	wc := NewWorkloadCache()
	use := UseBased(64, 2, core.IndexFilteredRR)
	for _, o := range []Options{
		{Insts: 2000},
		{Insts: 2000, Threads: 4},
		{Insts: 4000, Intervals: 2, WarmupInsts: 500},
	} {
		res, err := ExecuteWith(wc, "gzip", use, o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(EncodeStoredPayload("gzip", use, o, res))
	}
	f.Add([]byte{StorePayloadVersion})
	f.Add([]byte(`{"payload_version":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sr storedResult
		if err := decodePayload(data, &sr); err != nil {
			return
		}
		if re := encodePayload(&sr); !bytes.Equal(re, data) {
			t.Fatalf("decoded payload re-encodes differently:\n in %x\nout %x", data, re)
		}
	})
}
