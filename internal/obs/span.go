package obs

import (
	"encoding/hex"
	"os"
	"sync/atomic"
	"time"
)

// Span identity for request tracing. A request entering the serving
// tier is assigned a 128-bit trace ID (constant across every process
// the request touches) and a 64-bit span ID (one per unit of work).
// A client may mint the trace ID itself and send it in the
// X-Transched-Trace header; the daemon continues it, so the client's
// and the daemon's records share one trace (OBSERVABILITY.md).
//
// IDs come from a per-process splitmix64 stream over an atomic
// counter: one wall-clock read seeds the stream at init and every
// draw after that is a pure counter mix — no global math/rand state,
// no lock, no per-ID clock read. The IDs are unique within and (with
// overwhelming probability) across processes, and the generator is
// deterministic given its seed, which keeps the detrand/detclock
// discipline intact: identity never feeds a schedule result.

// TraceID identifies one end-to-end request across processes.
type TraceID [16]byte

// SpanID identifies one unit of work within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 32 lowercase hex characters.
func (t TraceID) String() string {
	var b [32]byte
	hex.Encode(b[:], t[:])
	return string(b[:])
}

// String renders the ID as 16 lowercase hex characters.
func (s SpanID) String() string {
	var b [16]byte
	hex.Encode(b[:], s[:])
	return string(b[:])
}

// SpanContext is a span's identity: which trace it belongs to and its
// own ID. The zero value is "no context" (a root request).
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether both IDs are set.
func (c SpanContext) Valid() bool { return !c.Trace.IsZero() && !c.Span.IsZero() }

// TraceHeader is the propagation header: "<32 hex trace>-<16 hex span>".
// A client may send it on a request; the server continues the trace ID
// it carries, records the span ID as its parent, and echoes the header
// on responses so clients can correlate.
const TraceHeader = "X-Transched-Trace"

// HeaderValue renders the context in the TraceHeader wire form.
func (c SpanContext) HeaderValue() string {
	return c.Trace.String() + "-" + c.Span.String()
}

// ParseTraceHeader parses a TraceHeader value. It returns ok=false for
// anything but the exact "<32 hex>-<16 hex>" form with nonzero IDs —
// a malformed or absent header simply starts a fresh root trace.
func ParseTraceHeader(v string) (SpanContext, bool) {
	if len(v) != 32+1+16 || v[32] != '-' {
		return SpanContext{}, false
	}
	var c SpanContext
	if _, err := hex.Decode(c.Trace[:], []byte(v[:32])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(c.Span[:], []byte(v[33:])); err != nil {
		return SpanContext{}, false
	}
	if !c.Valid() {
		return SpanContext{}, false
	}
	return c, true
}

// idSource is the per-process ID stream: splitmix64 over seed+counter.
type idSource struct {
	seed uint64
	ctr  atomic.Uint64
}

func (s *idSource) next() uint64 {
	// splitmix64: a bijective avalanche over the counter sequence, so
	// consecutive draws land far apart and never repeat within 2^64.
	x := s.seed + s.ctr.Add(1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// procIDs is the process-wide stream, seeded once from the boot clock
// and the PID so two daemons booted the same nanosecond still diverge.
var procIDs = newIDSource()

func newIDSource() *idSource {
	seed := uint64(time.Now().UnixNano()) //transched:allow-clock one boot-time seed for span identity; IDs never feed results
	return &idSource{seed: seed ^ uint64(os.Getpid())<<32 ^ 0x6d6f6c6368656d}
}

// NewTraceID draws a fresh 128-bit trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for { // a zero ID means "unset" on the wire; skip the 2^-128 case
		hi, lo := procIDs.next(), procIDs.next()
		putUint64(t[:8], hi)
		putUint64(t[8:], lo)
		if !t.IsZero() {
			return t
		}
	}
}

// NewSpanID draws a fresh 64-bit span ID.
func NewSpanID() SpanID {
	var s SpanID
	for {
		putUint64(s[:], procIDs.next())
		if !s.IsZero() {
			return s
		}
	}
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}
