package transport

// Hand-rolled binary codec for the internal/wire message shapes.
//
// A self-describing encoding re-transmits type definitions with every frame,
// spends bytes on field names, and allocates in both directions (reflection,
// buffer copies, interface boxing). On the decision path the codec is the
// last per-request allocator, so the wire messages — eleven fixed shapes —
// get a fixed binary layout instead:
//
//	frame  := len(4, big-endian) body
//	body   := magic(0xAB) version(0x02) msgType(1) from(str) fields…
//	str    := uvarint len, raw bytes
//	bytes  := uvarint len, raw bytes (len 0 decodes as nil)
//	uint   := uvarint            (Seq, View)
//	int    := varint (zigzag)    (QueueLength)
//	dur    := varint nanoseconds
//	time   := varint UnixNano; math.MinInt64 encodes the zero time
//	bool   := 1 byte, 0 or 1
//
// Field order per message is the struct field order in internal/wire. The
// encoding is deterministic — no maps, no optional fields — so a decoded
// message re-encodes byte-exactly (fenced by FuzzBinaryRoundTrip).
//
// Versioning: this is the only codec. A body that does not start with the
// magic byte, or carries an unknown version or message type, is rejected with
// an error that names what was seen, never a panic; every length is
// bounds-checked against the remaining body before use. The version byte is
// what a future layout change bumps.
//
// Payload []byte fields decode zero-copy: they alias the received frame
// buffer, which the read loop allocates per frame and never reuses.
//
// Times travel as UnixNano, so the monotonic reading and location are
// dropped and representable times are limited to years 1678–2262 — far
// beyond any transport timestamp.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"aqua/internal/wire"
)

const (
	binMagic = 0xAB // body[0]: marks a frame of this codec
	// binVersion 0x02: Request grew Stamp, PerfReport grew OrderedTail and
	// CaughtUp, and the ordered-mode StateRequest/StateChunk frames joined
	// the codec. A frame of any other version is rejected with an error that
	// names both versions.
	binVersion = 0x02 // body[1]: bumped on any layout change
)

// Message type codes (body[2]).
const (
	binRequest byte = iota + 1
	binResponse
	binSubscribe
	binUnsubscribe
	binPerfUpdate
	binHeartbeat
	binCancel
	binDigestSync
	binDigestRequest
	binStateRequest
	binStateChunk
)

// maxDigestEntries bounds the decoded digest batch (and each digest's bin
// list) so a malformed length cannot force an unbounded allocation before the
// bounds checks on the remaining body kick in.
const maxDigestEntries = 1 << 20

// zeroTimeSentinel encodes time.Time{} — its UnixNano is undefined, and no
// representable timestamp maps to MinInt64.
const zeroTimeSentinel = math.MinInt64

var errMalformedFrame = errors.New("transport: malformed binary frame")

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendByteSlice(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return binary.AppendVarint(b, zeroTimeSentinel)
	}
	return binary.AppendVarint(b, t.UnixNano())
}

func appendPerf(b []byte, p wire.PerfReport) []byte {
	b = binary.AppendVarint(b, int64(p.ServiceTime))
	b = binary.AppendVarint(b, int64(p.QueueDelay))
	b = binary.AppendVarint(b, int64(p.QueueLength))
	b = binary.AppendUvarint(b, p.OrderedTail)
	return appendBool(b, p.CaughtUp)
}

func appendLogEntry(b []byte, e wire.LogEntry) []byte {
	b = binary.AppendUvarint(b, e.Stamp)
	b = appendStr(b, string(e.Client))
	b = binary.AppendUvarint(b, uint64(e.Seq))
	b = appendStr(b, e.Method)
	return appendByteSlice(b, e.Payload)
}

// appendInt64s encodes a length-prefixed varint slice (nil and empty both
// encode as length 0; length 0 decodes as nil).
func appendInt64s(b []byte, vs []int64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendVarint(b, v)
	}
	return b
}

func appendDigest(b []byte, d wire.WindowDigest) []byte {
	b = appendStr(b, string(d.Replica))
	b = appendStr(b, d.Method)
	b = appendInt64s(b, d.ServiceBins)
	b = appendInt64s(b, d.ServiceCounts)
	b = appendInt64s(b, d.QueueBins)
	b = appendInt64s(b, d.QueueCounts)
	b = appendInt64s(b, d.GatewayBins)
	b = appendInt64s(b, d.GatewayCounts)
	b = binary.AppendVarint(b, int64(d.QueueLength))
	return binary.AppendVarint(b, d.AgeNanos)
}

// appendBinaryBody appends the binary body for one known wire message,
// reporting false (buf unchanged) for payload types the codec does not
// cover.
func appendBinaryBody(buf []byte, from Addr, payload any) ([]byte, bool) {
	var typ byte
	switch payload.(type) {
	case wire.Request:
		typ = binRequest
	case wire.Response:
		typ = binResponse
	case wire.Subscribe:
		typ = binSubscribe
	case wire.Unsubscribe:
		typ = binUnsubscribe
	case wire.PerfUpdate:
		typ = binPerfUpdate
	case wire.Heartbeat:
		typ = binHeartbeat
	case wire.Cancel:
		typ = binCancel
	case wire.DigestSync:
		typ = binDigestSync
	case wire.DigestRequest:
		typ = binDigestRequest
	case wire.StateRequest:
		typ = binStateRequest
	case wire.StateChunk:
		typ = binStateChunk
	default:
		return buf, false
	}
	buf = append(buf, binMagic, binVersion, typ)
	buf = appendStr(buf, string(from))
	switch m := payload.(type) {
	case wire.Request:
		buf = appendStr(buf, string(m.Client))
		buf = binary.AppendUvarint(buf, uint64(m.Seq))
		buf = appendStr(buf, string(m.Service))
		buf = appendStr(buf, m.Method)
		buf = appendByteSlice(buf, m.Payload)
		buf = appendTime(buf, m.SentAt)
		buf = appendBool(buf, m.Probe)
		buf = binary.AppendUvarint(buf, m.Stamp)
	case wire.Response:
		buf = appendStr(buf, string(m.Client))
		buf = binary.AppendUvarint(buf, uint64(m.Seq))
		buf = appendStr(buf, string(m.Replica))
		buf = appendStr(buf, string(m.Service))
		buf = appendByteSlice(buf, m.Payload)
		buf = appendStr(buf, m.Err)
		buf = appendPerf(buf, m.Perf)
		buf = appendTime(buf, m.SentAt)
		buf = appendBool(buf, m.Probe)
	case wire.Subscribe:
		buf = appendStr(buf, string(m.Client))
		buf = appendStr(buf, string(m.Service))
	case wire.Unsubscribe:
		buf = appendStr(buf, string(m.Client))
		buf = appendStr(buf, string(m.Service))
	case wire.PerfUpdate:
		buf = appendStr(buf, string(m.Replica))
		buf = appendStr(buf, string(m.Service))
		buf = appendStr(buf, m.Method)
		buf = appendPerf(buf, m.Perf)
	case wire.Heartbeat:
		buf = appendStr(buf, string(m.From))
		buf = appendStr(buf, m.Service)
		buf = binary.AppendUvarint(buf, m.View)
		buf = appendTime(buf, m.At)
	case wire.Cancel:
		buf = appendStr(buf, string(m.Client))
		buf = binary.AppendUvarint(buf, uint64(m.Seq))
		buf = appendStr(buf, string(m.Service))
	case wire.DigestSync:
		buf = appendStr(buf, string(m.Client))
		buf = appendStr(buf, string(m.Service))
		buf = binary.AppendUvarint(buf, m.Seq)
		buf = binary.AppendVarint(buf, m.ResolutionNanos)
		buf = binary.AppendVarint(buf, int64(m.WindowSize))
		buf = binary.AppendUvarint(buf, uint64(len(m.Digests)))
		for _, d := range m.Digests {
			buf = appendDigest(buf, d)
		}
	case wire.DigestRequest:
		buf = appendStr(buf, string(m.Client))
		buf = appendStr(buf, string(m.Service))
	case wire.StateRequest:
		buf = appendStr(buf, string(m.Replica))
		buf = appendStr(buf, string(m.Service))
		buf = appendBool(buf, m.WantSnapshot)
		buf = binary.AppendUvarint(buf, m.SinceIndex)
		buf = appendStr(buf, string(m.Gap))
		buf = binary.AppendUvarint(buf, m.FromStamp)
		buf = binary.AppendUvarint(buf, m.ToStamp)
	case wire.StateChunk:
		buf = appendStr(buf, string(m.Replica))
		buf = appendStr(buf, string(m.Service))
		buf = appendByteSlice(buf, m.Snapshot)
		buf = binary.AppendUvarint(buf, m.SnapshotIndex)
		buf = binary.AppendUvarint(buf, uint64(len(m.Entries)))
		for _, e := range m.Entries {
			buf = appendLogEntry(buf, e)
		}
		buf = binary.AppendUvarint(buf, uint64(len(m.Cursors)))
		for _, c := range m.Cursors {
			buf = appendStr(buf, string(c.Client))
			buf = binary.AppendUvarint(buf, c.Next)
		}
		buf = binary.AppendUvarint(buf, m.Tail)
		buf = appendBool(buf, m.Done)
		buf = appendBool(buf, m.Pruned)
		buf = appendStr(buf, m.Err)
	}
	return buf, true
}

// binReader is a bounds-checked cursor over one frame body with a sticky
// error: a malformed length poisons every subsequent read, and the caller
// checks err once at the end. No read can panic.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = errMalformedFrame
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.err = errMalformedFrame
		return 0
	}
	r.off += n
	return v
}

// take returns the next n bytes of the body without copying.
func (r *binReader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.err = errMalformedFrame
		return nil
	}
	p := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return p
}

func (r *binReader) str() string { return string(r.take(r.uvarint())) }

// byteSlice returns the next length-prefixed byte field aliasing the frame
// buffer (zero-copy); a zero length decodes as nil.
func (r *binReader) byteSlice() []byte {
	n := r.uvarint()
	if n == 0 {
		return nil
	}
	return r.take(n)
}

func (r *binReader) bool8() bool {
	p := r.take(1)
	return len(p) == 1 && p[0] != 0
}

func (r *binReader) dur() time.Duration { return time.Duration(r.varint()) }

func (r *binReader) timeAt() time.Time {
	ns := r.varint()
	if ns == zeroTimeSentinel {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

func (r *binReader) perf() wire.PerfReport {
	return wire.PerfReport{
		ServiceTime: r.dur(),
		QueueDelay:  r.dur(),
		QueueLength: int(r.varint()),
		OrderedTail: r.uvarint(),
		CaughtUp:    r.bool8(),
	}
}

func (r *binReader) logEntry() wire.LogEntry {
	return wire.LogEntry{
		Stamp:   r.uvarint(),
		Client:  wire.ClientID(r.str()),
		Seq:     wire.SeqNo(r.uvarint()),
		Method:  r.str(),
		Payload: r.byteSlice(),
	}
}

// count reads a collection length and bounds it against both the remaining
// body (every element costs at least one byte) and the digest sanity cap, so
// a forged length can neither over-allocate nor spin.
func (r *binReader) count() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)-r.off) || n > maxDigestEntries {
		r.err = errMalformedFrame
		return 0
	}
	return int(n)
}

// int64s reads a length-prefixed varint slice; length 0 decodes as nil.
func (r *binReader) int64s() []int64 {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.varint()
	}
	return out
}

func (r *binReader) digest() wire.WindowDigest {
	return wire.WindowDigest{
		Replica:       wire.ReplicaID(r.str()),
		Method:        r.str(),
		ServiceBins:   r.int64s(),
		ServiceCounts: r.int64s(),
		QueueBins:     r.int64s(),
		QueueCounts:   r.int64s(),
		GatewayBins:   r.int64s(),
		GatewayCounts: r.int64s(),
		QueueLength:   int(r.varint()),
		AgeNanos:      r.varint(),
	}
}

// decodeBinaryBody decodes one binary-codec body (body[0] is known to be
// binMagic). Unknown versions and message types return versioned errors so a
// newer peer's frames are rejected loudly, not mis-parsed.
func decodeBinaryBody(body []byte) (envelope, error) {
	if len(body) < 3 {
		return envelope{}, fmt.Errorf("transport: binary frame truncated at %d bytes", len(body))
	}
	if body[0] != binMagic {
		return envelope{}, fmt.Errorf("transport: frame starts 0x%02X, want codec magic 0x%02X", body[0], binMagic)
	}
	if body[1] != binVersion {
		return envelope{}, fmt.Errorf("transport: unsupported binary codec version %d (this build speaks %d)", body[1], binVersion)
	}
	typ := body[2]
	r := &binReader{b: body, off: 3}
	from := Addr(r.str())
	var payload any
	switch typ {
	case binRequest:
		payload = wire.Request{
			Client:  wire.ClientID(r.str()),
			Seq:     wire.SeqNo(r.uvarint()),
			Service: wire.Service(r.str()),
			Method:  r.str(),
			Payload: r.byteSlice(),
			SentAt:  r.timeAt(),
			Probe:   r.bool8(),
			Stamp:   r.uvarint(),
		}
	case binResponse:
		payload = wire.Response{
			Client:  wire.ClientID(r.str()),
			Seq:     wire.SeqNo(r.uvarint()),
			Replica: wire.ReplicaID(r.str()),
			Service: wire.Service(r.str()),
			Payload: r.byteSlice(),
			Err:     r.str(),
			Perf:    r.perf(),
			SentAt:  r.timeAt(),
			Probe:   r.bool8(),
		}
	case binSubscribe:
		payload = wire.Subscribe{
			Client:  wire.ClientID(r.str()),
			Service: wire.Service(r.str()),
		}
	case binUnsubscribe:
		payload = wire.Unsubscribe{
			Client:  wire.ClientID(r.str()),
			Service: wire.Service(r.str()),
		}
	case binPerfUpdate:
		payload = wire.PerfUpdate{
			Replica: wire.ReplicaID(r.str()),
			Service: wire.Service(r.str()),
			Method:  r.str(),
			Perf:    r.perf(),
		}
	case binHeartbeat:
		payload = wire.Heartbeat{
			From:    wire.ReplicaID(r.str()),
			Service: r.str(),
			View:    r.uvarint(),
			At:      r.timeAt(),
		}
	case binCancel:
		payload = wire.Cancel{
			Client:  wire.ClientID(r.str()),
			Seq:     wire.SeqNo(r.uvarint()),
			Service: wire.Service(r.str()),
		}
	case binDigestSync:
		m := wire.DigestSync{
			Client:          wire.ClientID(r.str()),
			Service:         wire.Service(r.str()),
			Seq:             r.uvarint(),
			ResolutionNanos: r.varint(),
			WindowSize:      int(r.varint()),
		}
		if n := r.count(); n > 0 {
			m.Digests = make([]wire.WindowDigest, n)
			for i := range m.Digests {
				m.Digests[i] = r.digest()
				if r.err != nil {
					break
				}
			}
		}
		payload = m
	case binDigestRequest:
		payload = wire.DigestRequest{
			Client:  wire.ClientID(r.str()),
			Service: wire.Service(r.str()),
		}
	case binStateRequest:
		payload = wire.StateRequest{
			Replica:      wire.ReplicaID(r.str()),
			Service:      wire.Service(r.str()),
			WantSnapshot: r.bool8(),
			SinceIndex:   r.uvarint(),
			Gap:          wire.ClientID(r.str()),
			FromStamp:    r.uvarint(),
			ToStamp:      r.uvarint(),
		}
	case binStateChunk:
		m := wire.StateChunk{
			Replica:       wire.ReplicaID(r.str()),
			Service:       wire.Service(r.str()),
			Snapshot:      r.byteSlice(),
			SnapshotIndex: r.uvarint(),
		}
		if n := r.count(); n > 0 {
			m.Entries = make([]wire.LogEntry, n)
			for i := range m.Entries {
				m.Entries[i] = r.logEntry()
				if r.err != nil {
					break
				}
			}
		}
		if n := r.count(); n > 0 {
			m.Cursors = make([]wire.ClientCursor, n)
			for i := range m.Cursors {
				m.Cursors[i] = wire.ClientCursor{
					Client: wire.ClientID(r.str()),
					Next:   r.uvarint(),
				}
				if r.err != nil {
					break
				}
			}
		}
		m.Tail = r.uvarint()
		m.Done = r.bool8()
		m.Pruned = r.bool8()
		m.Err = r.str()
		payload = m
	default:
		return envelope{}, fmt.Errorf("transport: unknown binary message type %d", typ)
	}
	if r.err != nil {
		return envelope{}, fmt.Errorf("transport: decoding binary %s frame: %w", binTypeName(typ), r.err)
	}
	if r.off != len(body) {
		return envelope{}, fmt.Errorf("transport: %d trailing bytes after binary %s frame", len(body)-r.off, binTypeName(typ))
	}
	return envelope{From: from, Payload: payload}, nil
}

func binTypeName(t byte) string {
	switch t {
	case binRequest:
		return "request"
	case binResponse:
		return "response"
	case binSubscribe:
		return "subscribe"
	case binUnsubscribe:
		return "unsubscribe"
	case binPerfUpdate:
		return "perf-update"
	case binHeartbeat:
		return "heartbeat"
	case binCancel:
		return "cancel"
	case binDigestSync:
		return "digest-sync"
	case binDigestRequest:
		return "digest-request"
	case binStateRequest:
		return "state-request"
	case binStateChunk:
		return "state-chunk"
	default:
		return "unknown"
	}
}
