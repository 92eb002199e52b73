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
//	list   := uvarint len, elements (len 0 decodes as nil)
//
// Each message's layout is written once, as its walk in binMessages: its
// fields in wire order (their struct order in internal/wire). A walker runs a
// walk sizing, writing or reading, so the size pass, the encoder and the
// decoder cannot disagree. The encoding is deterministic — no maps, no
// optional fields — so a decoded message re-encodes byte-exactly (fenced by
// FuzzBinaryRoundTrip); TestWireFormatGolden pins every message's bytes.
//
// Versioning: this is the only codec. A body that does not start with the
// magic byte, or carries an unknown version or message type, is rejected with
// an error that names what was seen, never a panic; every length is
// bounds-checked against the remaining body before use. The version byte is
// what a future layout change bumps.
//
// Byte fields (Payload, Snapshot, a log entry's Payload) decode in one of
// two ways, and a caller may hold either for as long as it likes. A frame
// that fits a connection's read buffer is decoded in place from that buffer,
// which the next frame overwrites, so each byte field is copied into an
// allocation of its own size. A larger body is read into an allocation the
// read loop makes per frame and never reuses, and byte fields alias it
// (decodeBinaryBody). Strings are never aliased: each is copied out of the
// body, or, on a TCP connection, taken from that connection's interner — a
// table of the identifiers (addresses, client, replica, service and method
// names) it has already decoded, so a repeated name costs a map lookup
// instead of an allocation. The table is bounded in entries and in the
// length of a string it accepts, so hostile input costs at most one
// allocation per string, as without it.
//
// Times travel as UnixNano, so the monotonic reading and location are
// dropped and representable times are limited to years 1678–2262 — far
// beyond any transport timestamp.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"aqua/internal/wire"
)

const (
	binMagic = 0xAB // body[0]: marks a frame of this codec
	// binVersion 0x03: DigestSync lost its window size, WindowDigest lost its
	// T bins and counts, and type code 9 (the retired peer-snapshot request)
	// is no longer decoded. A frame of any other version is rejected with an error
	// that names both versions.
	binVersion = 0x03 // body[1]: bumped on any layout change
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
	_ // 9: the retired peer-snapshot request; never reuse a code
	binStateRequest
	binStateChunk
)

// maxDigestEntries bounds every decoded list (digests, their bins, log
// entries, cursors) so a malformed length cannot force an unbounded
// allocation before the bounds checks on the remaining body kick in.
const maxDigestEntries = 1 << 20

// zeroTimeSentinel encodes time.Time{} — its UnixNano is undefined, and no
// representable timestamp maps to MinInt64.
const zeroTimeSentinel = math.MinInt64

var errMalformedFrame = errors.New("transport: malformed binary frame")

// binTypeOf is the type code of payload, or 0 for a payload type the codec
// does not cover.
func binTypeOf(payload any) byte {
	switch payload.(type) {
	case wire.Request:
		return binRequest
	case wire.Response:
		return binResponse
	case wire.Subscribe:
		return binSubscribe
	case wire.Unsubscribe:
		return binUnsubscribe
	case wire.PerfUpdate:
		return binPerfUpdate
	case wire.Heartbeat:
		return binHeartbeat
	case wire.Cancel:
		return binCancel
	case wire.DigestSync:
		return binDigestSync
	case wire.StateRequest:
		return binStateRequest
	case wire.StateChunk:
		return binStateChunk
	}
	return 0
}

// binMessages is the codec's one table: at each type code, the name errors
// use and the walk of the message's fields. A walk is handed the message to
// size or write, or nil to read one, which it returns. The walker travels by
// value: a pointer handed to a function from a table escapes to the heap, and
// would cost every frame an allocation.
var binMessages = [...]struct {
	name string
	walk func(w walker, msg any) (walker, any)
}{
	binRequest: {"request", func(w walker, msg any) (walker, any) {
		m, _ := msg.(wire.Request)
		w.str((*string)(&m.Client))
		w.uvarint((*uint64)(&m.Seq))
		w.str((*string)(&m.Service))
		w.str(&m.Method)
		w.bytes(&m.Payload)
		w.time(&m.SentAt)
		w.bool(&m.Probe)
		w.uvarint(&m.Stamp)
		return w, decoded(w.dir, &m)
	}},
	binResponse: {"response", func(w walker, msg any) (walker, any) {
		m, _ := msg.(wire.Response)
		w.str((*string)(&m.Client))
		w.uvarint((*uint64)(&m.Seq))
		w.str((*string)(&m.Replica))
		w.str((*string)(&m.Service))
		w.bytes(&m.Payload)
		w.str(&m.Err)
		w.perf(&m.Perf)
		w.time(&m.SentAt)
		w.bool(&m.Probe)
		return w, decoded(w.dir, &m)
	}},
	binSubscribe: {"subscribe", func(w walker, msg any) (walker, any) {
		m, _ := msg.(wire.Subscribe)
		w.str((*string)(&m.Client))
		w.str((*string)(&m.Service))
		return w, decoded(w.dir, &m)
	}},
	binUnsubscribe: {"unsubscribe", func(w walker, msg any) (walker, any) {
		m, _ := msg.(wire.Unsubscribe)
		w.str((*string)(&m.Client))
		w.str((*string)(&m.Service))
		return w, decoded(w.dir, &m)
	}},
	binPerfUpdate: {"perf-update", func(w walker, msg any) (walker, any) {
		m, _ := msg.(wire.PerfUpdate)
		w.str((*string)(&m.Replica))
		w.str((*string)(&m.Service))
		w.str(&m.Method)
		w.perf(&m.Perf)
		return w, decoded(w.dir, &m)
	}},
	binHeartbeat: {"heartbeat", func(w walker, msg any) (walker, any) {
		m, _ := msg.(wire.Heartbeat)
		w.str((*string)(&m.From))
		w.str(&m.Service)
		w.uvarint(&m.View)
		w.time(&m.At)
		return w, decoded(w.dir, &m)
	}},
	binCancel: {"cancel", func(w walker, msg any) (walker, any) {
		m, _ := msg.(wire.Cancel)
		w.str((*string)(&m.Client))
		w.uvarint((*uint64)(&m.Seq))
		w.str((*string)(&m.Service))
		return w, decoded(w.dir, &m)
	}},
	binDigestSync: {"digest-sync", func(w walker, msg any) (walker, any) {
		m, _ := msg.(wire.DigestSync)
		w.str((*string)(&m.Client))
		w.str((*string)(&m.Service))
		w.uvarint(&m.Seq)
		w.varint(&m.ResolutionNanos)
		ds := list(&m.Digests, w.count(len(m.Digests)))
		for i := 0; i < len(ds) && w.err == nil; i++ {
			d := &ds[i]
			w.str((*string)(&d.Replica))
			w.str(&d.Method)
			w.int64s(&d.ServiceBins)
			w.int64s(&d.ServiceCounts)
			w.int64s(&d.QueueBins)
			w.int64s(&d.QueueCounts)
			w.int(&d.QueueLength)
			w.varint(&d.AgeNanos)
		}
		return w, decoded(w.dir, &m)
	}},
	binStateRequest: {"state-request", func(w walker, msg any) (walker, any) {
		m, _ := msg.(wire.StateRequest)
		w.str((*string)(&m.Replica))
		w.str((*string)(&m.Service))
		w.bool(&m.WantSnapshot)
		w.uvarint(&m.SinceIndex)
		w.str((*string)(&m.Gap))
		w.uvarint(&m.FromStamp)
		w.uvarint(&m.ToStamp)
		return w, decoded(w.dir, &m)
	}},
	binStateChunk: {"state-chunk", func(w walker, msg any) (walker, any) {
		m, _ := msg.(wire.StateChunk)
		w.str((*string)(&m.Replica))
		w.str((*string)(&m.Service))
		w.bytes(&m.Snapshot)
		w.uvarint(&m.SnapshotIndex)
		es := list(&m.Entries, w.count(len(m.Entries)))
		for i := 0; i < len(es) && w.err == nil; i++ {
			e := &es[i]
			w.uvarint(&e.Stamp)
			w.str((*string)(&e.Client))
			w.uvarint((*uint64)(&e.Seq))
			w.str(&e.Method)
			w.bytes(&e.Payload)
		}
		cs := list(&m.Cursors, w.count(len(m.Cursors)))
		for i := 0; i < len(cs) && w.err == nil; i++ {
			c := &cs[i]
			w.str((*string)(&c.Client))
			w.uvarint(&c.Next)
		}
		w.uvarint(&m.Tail)
		w.bool(&m.Done)
		w.bool(&m.Pruned)
		w.str(&m.Err)
		return w, decoded(w.dir, &m)
	}},
}

// walkBody walks a body past its three header bytes: the sender, then the
// fields of message type typ.
func walkBody(w walker, typ byte, from *Addr, msg any) (walker, any) {
	w.str((*string)(from))
	return binMessages[typ].walk(w, msg)
}

// decodeBinaryBody decodes one binary-codec body that the decoded byte
// fields may alias, taking strings from in (nil: copy each).
func decodeBinaryBody(body []byte, in interner) (envelope, error) {
	return decodeBody(body, in, false)
}

// decodeBody decodes one binary-codec body, taking strings from in (nil: copy
// each) and copying byte fields out of a borrowed body. A body without the
// magic byte, and unknown versions and message types, return errors that
// name what was seen, so a newer peer's frames are rejected loudly, not
// mis-parsed.
func decodeBody(body []byte, in interner, borrowed bool) (envelope, error) {
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
	if int(typ) >= len(binMessages) || binMessages[typ].walk == nil {
		return envelope{}, fmt.Errorf("transport: unknown binary message type %d", typ)
	}
	var from Addr
	w, payload := walkBody(walker{dir: reading, b: body, off: 3, in: in, borrowed: borrowed}, typ, &from, nil)
	if w.err != nil {
		return envelope{}, fmt.Errorf("transport: decoding binary %s frame: %w", binMessages[typ].name, w.err)
	}
	if w.off != len(body) {
		return envelope{}, fmt.Errorf("transport: %d trailing bytes after binary %s frame", len(body)-w.off, binMessages[typ].name)
	}
	return envelope{From: from, Payload: payload}, nil
}

// walkDir is the direction a walker runs a message's fields in.
type walkDir uint8

const (
	sizing  walkDir = iota // add each field's encoded length to size
	writing                // append each field to b
	reading                // decode each field from b[off:] into place
)

// walker runs one message walk. Sizing and writing only read the fields
// they are handed; reading stores into them. Reading is a bounds-checked
// cursor with a sticky error: a malformed length poisons every later read,
// and the caller checks err once at the end. No read can panic.
type walker struct {
	dir      walkDir
	size     int      // sizing: the body's length so far
	b        []byte   // writing: the frame so far; reading: the body
	off      int      // reading: the cursor into b
	err      error    // reading: the first malformation met
	in       interner // reading: where strings come from (nil: copy each)
	borrowed bool     // reading: b is reused after the walk, so byte fields copy out of it
}

func (w *walker) uvarint(v *uint64) {
	switch w.dir {
	case sizing:
		w.size += uvarintSize(*v)
	case writing:
		w.b = binary.AppendUvarint(w.b, *v)
	case reading:
		if w.err != nil {
			return
		}
		x, n := binary.Uvarint(w.b[w.off:])
		if n <= 0 {
			w.err = errMalformedFrame
			return
		}
		*v, w.off = x, w.off+n
	}
}

func (w *walker) varint(v *int64) {
	switch w.dir {
	case sizing:
		w.size += varintSize(*v)
	case writing:
		w.b = binary.AppendVarint(w.b, *v)
	case reading:
		var u uint64
		w.uvarint(&u)
		*v = int64(u>>1) ^ -int64(u&1) // undo the zigzag, as binary.Varint does
	}
}

func (w *walker) int(v *int) {
	x := int64(*v)
	w.varint(&x)
	if w.dir == reading {
		*v = int(x)
	}
}

func (w *walker) str(s *string) {
	n := uint64(len(*s))
	w.uvarint(&n)
	switch w.dir {
	case sizing:
		w.size += len(*s)
	case writing:
		w.b = append(w.b, *s...)
	case reading:
		*s = w.in.str(w.take(n))
	}
}

// bytes walks a byte field; reading, it aliases the body, or copies out of a
// borrowed one into an allocation of exactly its length, and a zero length
// decodes as nil.
func (w *walker) bytes(p *[]byte) {
	n := uint64(len(*p))
	w.uvarint(&n)
	switch w.dir {
	case sizing:
		w.size += len(*p)
	case writing:
		w.b = append(w.b, *p...)
	case reading:
		if n == 0 {
			return
		}
		*p = w.take(n)
		if w.borrowed && *p != nil {
			*p = append(make([]byte, 0, n), *p...)
		}
	}
}

func (w *walker) bool(v *bool) {
	switch w.dir {
	case sizing:
		w.size++
	case writing:
		if *v {
			w.b = append(w.b, 1)
		} else {
			w.b = append(w.b, 0)
		}
	case reading:
		p := w.take(1)
		*v = len(p) == 1 && p[0] != 0
	}
}

func (w *walker) time(t *time.Time) {
	ns := int64(zeroTimeSentinel)
	if !t.IsZero() {
		ns = t.UnixNano()
	}
	w.varint(&ns)
	if w.dir == reading && ns != zeroTimeSentinel {
		*t = time.Unix(0, ns)
	}
}

func (w *walker) perf(p *wire.PerfReport) {
	w.varint((*int64)(&p.ServiceTime))
	w.varint((*int64)(&p.QueueDelay))
	w.int(&p.QueueLength)
	w.uvarint(&p.OrderedTail)
	w.bool(&p.CaughtUp)
}

// count walks a list's length prefix and returns the number of elements to
// walk: n itself when sizing or writing; when reading, the decoded length,
// bounded by the remaining body (every element costs at least one byte) and
// by maxDigestEntries, so a forged length can neither over-allocate nor spin.
func (w *walker) count(n int) int {
	v := uint64(n)
	w.uvarint(&v)
	if w.dir == reading && (w.err != nil || v > uint64(len(w.b)-w.off) || v > maxDigestEntries) {
		w.err = errMalformedFrame
		return 0
	}
	return int(v)
}

// list returns *s at length n, making it when reading, for a walk to walk
// each element in place (until a malformation, when reading). A zero length
// leaves *s as it is, so an empty list decodes as nil.
func list[E any](s *[]E, n int) []E {
	if len(*s) != n {
		*s = make([]E, n)
	}
	return *s
}

func (w *walker) int64s(s *[]int64) {
	for i := range list(s, w.count(len(*s))) {
		w.varint(&(*s)[i])
	}
}

// take returns the next n bytes of the body without copying.
func (w *walker) take(n uint64) []byte {
	if w.err != nil {
		return nil
	}
	if n > uint64(len(w.b)-w.off) {
		w.err = errMalformedFrame
		return nil
	}
	p := w.b[w.off : w.off+int(n)]
	w.off += int(n)
	return p
}

// decoded is a walk's result: the message it read, or nil on the sizing and
// writing passes, so that those passes box nothing.
func decoded[M any](dir walkDir, m *M) any {
	if dir != reading {
		return nil
	}
	return *m
}

func uvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintSize is the size of binary.AppendVarint's zigzag encoding of v.
func varintSize(v int64) int { return uvarintSize(uint64(v<<1) ^ uint64(v>>63)) }

// Interner bounds: a connection keeps at most internMaxEntries identifiers
// and starts over when the table is full, and a string longer than
// internMaxLen is copied without entering the table. Identifiers in this
// system (host:port addresses, client, replica, service and method names)
// are short and few per connection; a full table means something else is
// flowing, and starting over bounds its memory.
const (
	internMaxEntries = 256
	internMaxLen     = 64
)

// interner resolves identifier bytes to one shared string per distinct
// value. It belongs to one connection's read goroutine and is not safe for
// concurrent use. A nil interner copies every string.
type interner map[string]string

// newInterner sizes the table for its cap up front, so inserts never grow it.
func newInterner() interner { return make(interner, internMaxEntries) }

// str returns b as a string without allocating when the same bytes were seen
// before. The returned string never aliases b.
func (in interner) str(b []byte) string {
	if in == nil || len(b) == 0 || len(b) > internMaxLen {
		return string(b)
	}
	if s, ok := in[string(b)]; ok { // the conversion in a map index does not allocate
		return s
	}
	if len(in) >= internMaxEntries {
		clear(in)
	}
	s := string(b)
	in[s] = s
	return s
}
