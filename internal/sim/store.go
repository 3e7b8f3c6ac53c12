package sim

// This file binds the run layer to internal/store, the durable
// content-addressed result store that acts as the L2 of the cache
// hierarchy (memo → store → simulate). It supplies the two things the
// generic store deliberately does not know about: how a job is
// fingerprinted into a key, and how a completed result is encoded into a
// durable payload.
//
// Keys are a canonical SHA-256 over the versioned SchemeRecord, the
// benchmark, the defaulted Options, the ResultsFile schema version, the
// store payload version, and a simulator-version stamp. The stamps are the
// staleness guard: any change that alters timing behaviour must bump
// SimulatorVersion, any change to the payload layout StorePayloadVersion,
// after which every existing store entry simply stops matching — stale
// results are never served (nor decoded), they just age out (or are
// GC'd/compacted away).
//
// Payloads are binary: a version byte, then the storedResult walked by
// payloadCodec. The one encode/decode pair (EncodeStoredPayload,
// DecodeStoredPayload) serves ResultStore, the fleet's GET /v1/store/{key}
// peer probe and the admin CLI alike.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"

	"regcache/internal/pipeline"
	"regcache/internal/store"
)

// SimulatorVersion stamps every stored result with the timing model that
// produced it. Bump it whenever a change alters simulated behaviour —
// cycle counts, stats, default configuration — so a durable store never
// serves results from an older model. Pure performance work that keeps
// results bit-identical (verified by the fingerprint tests of PR 3) does
// not bump it. The ResultsFile schema version is fingerprinted alongside
// it, so a payload-layout change invalidates entries the same way.
// Version history:
//
//	1 — initial durable store.
//	2 — pipeline.Result gained use-predictor raw counters and the optional
//	    Intervals block; interval options joined the fingerprint.
//	3 — multithreaded workloads (thread/interleave options joined the
//	    fingerprint; Result gained the per-context stats block) and the
//	    port-filtering scheme family (read_ports in SchemeRecord,
//	    port-conflict stalls in Stats).
const SimulatorVersion = 3

// StorePayloadVersion versions the stored value encoding: it is the first
// byte of every payload and part of every store key, so entries of another
// layout miss instead of failing to decode. TestStorePayloadLayoutPinned
// ties it to the shape of storedResult.
//
//	1 — JSON storedResult {"payload_version", "record", "result"}.
//	2 — binary: version byte, then storedResult in payloadCodec form.
const StorePayloadVersion = 2

// storeKey is the canonical key encoding hashed into a store fingerprint.
// Field order is fixed by the struct, so json.Marshal is deterministic.
type storeKey struct {
	SimVersion     int          `json:"sim_version"`
	SchemaVersion  int          `json:"schema_version"`
	PayloadVersion int          `json:"payload_version"`
	Scheme         SchemeRecord `json:"scheme"`
	Bench          string       `json:"bench"`
	Insts          uint64       `json:"insts"`
	TrackLifetimes bool         `json:"track_lifetimes"`
	TrackLive      bool         `json:"track_live"`
	Intervals      int          `json:"intervals"`
	WarmupInsts    uint64       `json:"warmup_insts"`
	Threads        int          `json:"threads"`
	Interleave     int          `json:"interleave"`
}

// fingerprintJob derives the content-addressed store key for a job under
// the given simulator version.
func fingerprintJob(version int, j Job) store.Key {
	j.Opts = j.Opts.withDefaults()
	data, err := json.Marshal(storeKey{
		SimVersion:     version,
		SchemaVersion:  ResultsSchemaVersion,
		PayloadVersion: StorePayloadVersion,
		Scheme:         NewSchemeRecord(j.Scheme),
		Bench:          j.Bench,
		Insts:          j.Opts.Insts,
		TrackLifetimes: j.Opts.TrackLifetimes,
		TrackLive:      j.Opts.TrackLive,
		Intervals:      j.Opts.Intervals,
		WarmupInsts:    j.Opts.WarmupInsts,
		Threads:        j.Opts.Threads,
		Interleave:     j.Opts.Interleave,
	})
	if err != nil {
		// The key structs are plain value types; marshalling cannot fail.
		panic(fmt.Sprintf("sim: fingerprint job %s: %v", j.Key(), err))
	}
	return store.Key(sha256.Sum256(data))
}

// storedResult is the durable payload: the full pipeline.Result (so a
// store hit is indistinguishable from a fresh simulation, down to the
// bytes of the response documents built from it) plus the curated
// RunRecord for admin tooling that wants to display entries without
// knowing pipeline internals.
type storedResult struct {
	Record RunRecord
	Result pipeline.Result
}

// ErrStalePayload reports a payload written in another payload layout (a
// store directory from before the last StorePayloadVersion bump).
var ErrStalePayload = errors.New("sim: stale store payload")

// EncodeStoredPayload encodes one completed point as a store payload: the
// bytes ResultStore.Put appends on disk and GET /v1/store/{key} serves.
func EncodeStoredPayload(bench string, s Scheme, o Options, res pipeline.Result) []byte {
	o = o.withDefaults()
	sr := storedResult{Record: NewRunRecord(bench, s, o, res), Result: res}
	return encodePayload(&sr)
}

// DecodeStoredPayload decodes a store payload into the curated record and
// the full pipeline.Result, so a store hit — local or a peer's — is
// indistinguishable from a fresh simulation. A payload of another layout
// fails with ErrStalePayload; malformed bytes fail with a decode error.
func DecodeStoredPayload(data []byte) (RunRecord, pipeline.Result, error) {
	var sr storedResult
	if err := decodePayload(data, &sr); err != nil {
		return RunRecord{}, pipeline.Result{}, err
	}
	return sr.Record, sr.Result, nil
}

// storedPayloadCodec is the plan for storedResult, built once.
var storedPayloadCodec = newPayloadCodec(reflect.TypeOf(storedResult{}))

func encodePayload(sr *storedResult) []byte {
	return storedPayloadCodec.encode(append(make([]byte, 0, 512), StorePayloadVersion), reflect.ValueOf(sr).Elem())
}

func decodePayload(data []byte, sr *storedResult) error {
	if len(data) == 0 {
		return errors.New("sim: decode stored payload: empty")
	}
	if v := payloadVersion(data); v != StorePayloadVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrStalePayload, v, StorePayloadVersion)
	}
	d := payloadDecoder{data: data, off: 1}
	storedPayloadCodec.decode(&d, reflect.ValueOf(sr).Elem())
	if d.err == nil && d.off != len(data) {
		d.fail("%d trailing bytes", len(data)-d.off)
	}
	return d.err
}

// payloadVersion reads a payload's version byte. Version 1 payloads were
// JSON objects and carry no such byte; they start with '{'.
func payloadVersion(data []byte) int {
	if data[0] == '{' {
		return 1
	}
	return int(data[0])
}

// payloadCodec is the encoding plan for one Go type of the payload. The
// encoding walks exported fields in declaration order (unexported ones are
// skipped, as encoding/json skips them) with no field names or tags:
//
//	bool        one byte, 0 or 1
//	int kinds   zigzag varint      uint kinds  uvarint
//	float64     8 bytes, IEEE 754 bits, little-endian
//	string      uvarint length, then the bytes
//	array       each element
//	slice       uvarint 0 for nil, else length+1, then each element
//	pointer     one byte, 0 for nil, else 1 then the element
//	struct      each exported field
//
// Every value has exactly one encoding (varints must be minimal), so a
// decoded payload re-encodes to the same bytes. Other kinds — maps,
// interfaces, float32 — have no encoding: a payload type that holds one
// panics when the package initializes storedPayloadCodec.
type payloadCodec struct {
	kind    reflect.Kind
	typ     reflect.Type
	fields  []payloadField // struct
	elem    *payloadCodec  // array, slice, pointer
	minSize uint64         // fewest bytes any value of the type encodes to
}

type payloadField struct {
	index int
	codec *payloadCodec
}

func newPayloadCodec(t reflect.Type) *payloadCodec {
	c := &payloadCodec{kind: t.Kind(), typ: t, minSize: 1}
	switch t.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
	case reflect.Float64:
		c.minSize = 8
	case reflect.Slice, reflect.Pointer:
		c.elem = newPayloadCodec(t.Elem())
	case reflect.Array:
		c.elem = newPayloadCodec(t.Elem())
		c.minSize = uint64(t.Len()) * c.elem.minSize
	case reflect.Struct:
		c.minSize = 0
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			fc := newPayloadCodec(f.Type)
			c.fields = append(c.fields, payloadField{index: i, codec: fc})
			c.minSize += fc.minSize
		}
	default:
		panic(fmt.Sprintf("sim: store payload cannot encode %s (kind %s)", t, t.Kind()))
	}
	return c
}

func (c *payloadCodec) encode(b []byte, v reflect.Value) []byte {
	switch c.kind {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			b = c.elem.encode(b, v.Index(i))
		}
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(v.Len())+1)
		for i := 0; i < v.Len(); i++ {
			b = c.elem.encode(b, v.Index(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return c.elem.encode(append(b, 1), v.Elem())
	case reflect.Struct:
		for _, f := range c.fields {
			b = f.codec.encode(b, v.Field(f.index))
		}
	}
	return b
}

// payloadDecoder is a read cursor over one payload. The first error sticks
// and every later read is a no-op.
type payloadDecoder struct {
	data []byte
	off  int
	err  error
}

func (d *payloadDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("sim: decode stored payload at byte %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

func (d *payloadDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.data) {
		d.fail("truncated")
		return 0
	}
	d.off++
	return d.data[d.off-1]
}

func (d *payloadDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.data[d.off:])
	switch {
	case n == 0:
		d.fail("truncated")
		return 0
	case n < 0:
		d.fail("varint overflows 64 bits")
		return 0
	case n > 1 && d.data[d.off+n-1] == 0:
		d.fail("non-minimal varint")
		return 0
	}
	d.off += n
	return x
}

// length reads an element count n and checks that the input left can hold
// n elements of at least size bytes each, before anything is allocated.
func (d *payloadDecoder) length(n, size uint64) int {
	if left := uint64(len(d.data) - d.off); n > left/max(size, 1) {
		d.fail("length %d exceeds the %d bytes left", n, left)
		return 0
	}
	return int(n)
}

func (c *payloadCodec) decode(d *payloadDecoder, v reflect.Value) {
	if d.err != nil {
		return
	}
	switch c.kind {
	case reflect.Bool:
		switch b := d.byte(); b {
		case 0, 1:
			v.SetBool(b == 1)
		default:
			d.fail("bool byte %d", b)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u := d.uvarint()
		x := int64(u >> 1)
		if u&1 != 0 {
			x = ^x
		}
		if v.OverflowInt(x) {
			d.fail("%d overflows %s", x, c.typ)
			return
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := d.uvarint()
		if v.OverflowUint(x) {
			d.fail("%d overflows %s", x, c.typ)
			return
		}
		v.SetUint(x)
	case reflect.Float64:
		if len(d.data)-d.off < 8 {
			d.fail("truncated")
			return
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:])))
		d.off += 8
	case reflect.String:
		n := d.length(d.uvarint(), 1)
		if d.err != nil {
			return
		}
		v.SetString(string(d.data[d.off : d.off+n]))
		d.off += n
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			c.elem.decode(d, v.Index(i))
		}
	case reflect.Slice:
		tag := d.uvarint()
		if d.err != nil || tag == 0 {
			v.SetZero()
			return
		}
		n := d.length(tag-1, c.elem.minSize)
		if d.err != nil {
			return
		}
		s := reflect.MakeSlice(c.typ, n, n)
		for i := 0; i < n; i++ {
			c.elem.decode(d, s.Index(i))
		}
		v.Set(s)
	case reflect.Pointer:
		switch b := d.byte(); b {
		case 0:
			v.SetZero()
		case 1:
			p := reflect.New(c.typ.Elem())
			c.elem.decode(d, p.Elem())
			v.Set(p)
		default:
			d.fail("pointer byte %d", b)
		}
	case reflect.Struct:
		for _, f := range c.fields {
			f.codec.decode(d, v.Field(f.index))
		}
	}
}

// StoreGetStatus classifies a result-store lookup.
type StoreGetStatus int

const (
	StoreGetMiss    StoreGetStatus = iota
	StoreGetHit                    // decoded result served
	StoreGetCorrupt                // entry present but CRC-bad or undecodable
)

// ResultStore adapts a generic store.Store into the run layer's durable
// result cache. It is safe for concurrent use (the underlying store
// serializes access internally).
type ResultStore struct {
	st      *store.Store
	version int
}

// NewResultStore wraps an open store with the current SimulatorVersion.
func NewResultStore(st *store.Store) *ResultStore {
	return &ResultStore{st: st, version: SimulatorVersion}
}

// OpenResultStore opens (creating if needed) the store directory and wraps
// it with the current SimulatorVersion.
func OpenResultStore(dir string, opt store.Options) (*ResultStore, error) {
	st, err := store.Open(dir, opt)
	if err != nil {
		return nil, err
	}
	return NewResultStore(st), nil
}

// WithSimulatorVersion returns a view of the same store keyed under a
// different simulator version — the hook version-bump tests and migration
// tooling use to prove that entries written under one model never match
// under another.
func (rs *ResultStore) WithSimulatorVersion(v int) *ResultStore {
	return &ResultStore{st: rs.st, version: v}
}

// Store returns the underlying generic store (for stats and admin ops).
func (rs *ResultStore) Store() *store.Store { return rs.st }

// Get looks a job up. A key that is present but fails its CRC check or
// does not decode as a current-version payload reports StoreGetCorrupt;
// the caller treats it as a miss and re-simulates (the fresh result's
// append then supersedes the bad entry).
func (rs *ResultStore) Get(j Job) (pipeline.Result, StoreGetStatus) {
	data, err := rs.st.Get(fingerprintJob(rs.version, j))
	switch {
	case errors.Is(err, store.ErrNotFound):
		return pipeline.Result{}, StoreGetMiss
	case err != nil:
		return pipeline.Result{}, StoreGetCorrupt
	}
	_, res, err := DecodeStoredPayload(data)
	if err != nil {
		return pipeline.Result{}, StoreGetCorrupt
	}
	return res, StoreGetHit
}

// Put appends one completed job's result.
func (rs *ResultStore) Put(j Job, res pipeline.Result) error {
	return rs.st.Put(fingerprintJob(rs.version, j), EncodeStoredPayload(j.Bench, j.Scheme, j.Opts, res))
}

// Close closes the underlying store.
func (rs *ResultStore) Close() error { return rs.st.Close() }
