package transport

// Fences for the binary codec: byte-exact round trips and exact-size encodes
// for every wire message type, refusal of payload types outside
// internal/wire, rejection of non-magic and foreign-version frames, no panics
// on truncated or corrupt input, the interner's bounds, and the frame path's
// allocation counts.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"aqua/internal/metrics"
	"aqua/internal/wire"
)

// binaryCodecCases covers all eleven wire message types, most with fully
// populated and zero-value variants. Times are built with time.Unix so the
// decoded value (wall clock only, no monotonic reading) compares equal under
// reflect.DeepEqual.
func binaryCodecCases() []struct {
	name    string
	payload any
} {
	at := time.Unix(0, 1754700000123456789)
	return []struct {
		name    string
		payload any
	}{
		{"request", wire.Request{Client: "c1", Seq: 42, Service: "svc", Method: "get", Payload: []byte("body"), SentAt: at, Probe: true}},
		{"request-zero", wire.Request{}},
		{"response", wire.Response{Client: "c1", Seq: 42, Replica: "r2", Service: "svc", Payload: []byte{0, 0xAB, 0xFF}, Err: "boom",
			Perf: wire.PerfReport{ServiceTime: 5 * time.Millisecond, QueueDelay: -time.Microsecond, QueueLength: 3}, SentAt: at}},
		{"response-zero", wire.Response{}},
		{"subscribe", wire.Subscribe{Client: "c1", Service: "svc"}},
		{"unsubscribe", wire.Unsubscribe{Client: "c1", Service: "svc"}},
		{"perf-update", wire.PerfUpdate{Replica: "r1", Service: "svc", Method: "m", Perf: wire.PerfReport{ServiceTime: time.Second, QueueLength: -1}}},
		{"heartbeat", wire.Heartbeat{From: "r3", Service: "svc", View: 9, At: at}},
		{"heartbeat-zero", wire.Heartbeat{}},
		{"cancel", wire.Cancel{Client: "c7", Seq: 42, Service: "svc"}},
		{"cancel-zero", wire.Cancel{}},
		{"digest-sync", wire.DigestSync{Client: "g1", Service: "svc", Seq: 17, ResolutionNanos: 1_000_000,
			Digests: []wire.WindowDigest{
				{Replica: "r1", Method: "get",
					ServiceBins: []int64{3, 5, 9}, ServiceCounts: []int64{2, 2, 1},
					QueueBins: []int64{0, 1}, QueueCounts: []int64{4, 1},
					QueueLength: 3, AgeNanos: 250_000_000},
				{Replica: "r2", Method: "get", QueueLength: -1, AgeNanos: 0},
			}}},
		{"digest-sync-zero", wire.DigestSync{}},
		{"ordered-request", wire.Request{Client: "c1", Seq: 1 << 40, Service: "svc", Method: "put", Payload: make([]byte, 200), SentAt: at, Stamp: 1 << 63}},
		{"ordered-response", wire.Response{Client: "c1", Seq: 7, Replica: "r2", Service: "svc",
			Perf: wire.PerfReport{ServiceTime: -1 << 62, QueueDelay: 1, QueueLength: 1 << 20, OrderedTail: 300, CaughtUp: true}, SentAt: time.Unix(0, -1)}},
		{"state-request", wire.StateRequest{Replica: "r1", Service: "svc", WantSnapshot: true, SinceIndex: 9, Gap: "c1", FromStamp: 127, ToStamp: 128}},
		{"state-request-zero", wire.StateRequest{}},
		{"state-chunk", wire.StateChunk{Replica: "r1", Service: "svc", Snapshot: make([]byte, 300), SnapshotIndex: 16384,
			Entries: []wire.LogEntry{{Stamp: 5, Client: "c1", Seq: 12, Method: "put", Payload: []byte("v")}, {Stamp: 6, Client: "c2", Seq: 1, Method: "del"}},
			Cursors: []wire.ClientCursor{{Client: "c1", Next: 6}, {Client: "c2", Next: 2}}, Tail: 6, Done: true, Pruned: true, Err: "late"}},
		{"state-chunk-zero", wire.StateChunk{}},
	}
}

// TestBinaryRoundTripAllTypes: every wire message decodes to an equal value
// and, decoded-then-re-encoded, reproduces the original frame byte-exactly
// (the codec is deterministic, so equality of bytes is equality of messages).
func TestBinaryRoundTripAllTypes(t *testing.T) {
	for _, tc := range binaryCodecCases() {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := encodeFrame("sender", tc.payload)
			if err != nil {
				t.Fatal(err)
			}
			if frame[4] != binMagic {
				t.Fatalf("wire type %T did not take the binary codec: body starts 0x%02X", tc.payload, frame[4])
			}
			if cap(frame) != len(frame) {
				t.Errorf("frame is %d bytes in a %d-byte allocation: the sizing pass disagrees with the writing pass", len(frame), cap(frame))
			}
			env, err := decodeFrame(uninterned(frame))
			if err != nil {
				t.Fatal(err)
			}
			if env.From != "sender" {
				t.Errorf("From = %q", env.From)
			}
			if !reflect.DeepEqual(env.Payload, tc.payload) {
				t.Errorf("payload mismatch:\n got %#v\nwant %#v", env.Payload, tc.payload)
			}
			again, err := encodeFrame(env.From, env.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, again) {
				t.Errorf("re-encode not byte-exact:\n got %x\nwant %x", again, frame)
			}
		})
	}
}

// TestVarintSizes pins the size pass's integer widths to what the append
// pass writes, at every 7-bit boundary and at the extremes, signed and not.
func TestVarintSizes(t *testing.T) {
	for k := 0; k < 64; k++ {
		for _, u := range []uint64{1<<k - 1, 1 << k, 1<<k + 1, ^uint64(0) >> k} {
			if got, want := uvarintSize(u), len(binary.AppendUvarint(nil, u)); got != want {
				t.Errorf("uvarintSize(%d) = %d, want %d", u, got, want)
			}
			for _, v := range []int64{int64(u), -int64(u), int64(u) - 1, -int64(u) - 1} {
				if got, want := varintSize(v), len(binary.AppendVarint(nil, v)); got != want {
					t.Errorf("varintSize(%d) = %d, want %d", v, got, want)
				}
			}
		}
	}
}

// TestBinaryTimeFidelity checks wall-clock times (with monotonic readings,
// as time.Now produces) survive the codec under time.Time.Equal.
func TestBinaryTimeFidelity(t *testing.T) {
	now := time.Now()
	frame, err := encodeFrame("a", wire.Request{SentAt: now})
	if err != nil {
		t.Fatal(err)
	}
	env, err := decodeFrame(uninterned(frame))
	if err != nil {
		t.Fatal(err)
	}
	got := env.Payload.(wire.Request).SentAt
	if !got.Equal(now) {
		t.Errorf("SentAt = %v, want %v", got, now)
	}
	zero, err := encodeFrame("a", wire.Heartbeat{})
	if err != nil {
		t.Fatal(err)
	}
	env, err = decodeFrame(uninterned(zero))
	if err != nil {
		t.Fatal(err)
	}
	if at := env.Payload.(wire.Heartbeat).At; !at.IsZero() {
		t.Errorf("zero time decoded as %v", at)
	}
}

// reframe wraps a raw body in a corrected 4-byte length prefix.
func reframe(body []byte) []byte {
	frame := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(frame, uint32(len(body)))
	copy(frame[4:], body)
	return frame
}

// TestBinaryRejectsForeignVersion: a frame from a newer codec version must
// fail with a versioned error, not mis-parse.
func TestBinaryRejectsForeignVersion(t *testing.T) {
	frame, err := encodeFrame("a", wire.Subscribe{Client: "c", Service: "s"})
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), frame[4:]...)
	body[1] = binVersion + 1
	_, err = decodeFrame(uninterned(reframe(body)))
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("version")) {
		t.Errorf("foreign version: err = %v, want versioned rejection", err)
	}
}

// TestDecodeRejectsNonMagicBody: a body whose first byte is not the codec
// magic — whatever a foreign or corrupted sender put there — is an error that
// says so, never a panic or a mis-parse of the remaining bytes.
func TestDecodeRejectsNonMagicBody(t *testing.T) {
	frame, err := encodeFrame("a", wire.Subscribe{Client: "c", Service: "s"})
	if err != nil {
		t.Fatal(err)
	}
	for _, first := range []byte{0x00, 0x2A, 0x7F, binMagic - 1, binMagic + 1, 0xFF} {
		body := append([]byte(nil), frame[4:]...)
		body[0] = first
		_, err := decodeFrame(uninterned(reframe(body)))
		if err == nil || !strings.Contains(err.Error(), "magic") {
			t.Errorf("body starting 0x%02X: err = %v, want magic rejection", first, err)
		}
	}
}

// TestBinaryRejectsUnknownType: an unknown message type code is an error.
// Code 9 carried the retired peer-snapshot request; a frame with it, even
// one whose body is that old layout (sender "a", client "g", service "svc"),
// is refused as unknown.
func TestBinaryRejectsUnknownType(t *testing.T) {
	for _, body := range [][]byte{
		{binMagic, binVersion, 0x7F, 0},
		{binMagic, binVersion, 9, 1, 'a', 1, 'g', 3, 's', 'v', 'c'},
	} {
		_, err := decodeFrame(uninterned(reframe(body)))
		if want := fmt.Sprintf("unknown binary message type %d", body[2]); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("type code %d: err = %v, want %q", body[2], err, want)
		}
	}
}

// TestBinaryTruncationNeverPanics feeds every proper prefix (and one
// extension) of a valid binary body through the decoder: each must return an
// error — never panic, never a bogus success.
func TestBinaryTruncationNeverPanics(t *testing.T) {
	for _, tc := range binaryCodecCases() {
		frame, err := encodeFrame("sender-addr", tc.payload)
		if err != nil {
			t.Fatal(err)
		}
		body := frame[4:]
		for cut := 0; cut < len(body); cut++ {
			if _, err := decodeFrame(uninterned(reframe(body[:cut]))); err == nil {
				t.Errorf("%s: decoding %d/%d body bytes succeeded", tc.name, cut, len(body))
			}
		}
		extended := append(append([]byte(nil), body...), 0x00)
		if _, err := decodeFrame(uninterned(reframe(extended))); err == nil {
			t.Errorf("%s: trailing byte accepted", tc.name)
		}
	}
}

// codecTestExtra is a payload type outside internal/wire.
type codecTestExtra struct{ N int }

// TestEncodeRefusesNonWirePayload: a payload type the codec does not cover —
// including a pointer to one it does — is refused at encode time with
// errUnsupportedPayload, and a TCP Send surfaces that error to the caller
// instead of putting anything on the wire.
func TestEncodeRefusesNonWirePayload(t *testing.T) {
	for _, payload := range []any{codecTestExtra{N: 7}, &wire.Request{Seq: 1}, "text", nil} {
		frame, err := encodeFrame("a", payload)
		if !errors.Is(err, errUnsupportedPayload) {
			t.Errorf("encodeFrame(%T) = %d bytes, err %v; want errUnsupportedPayload", payload, len(frame), err)
		}
	}
	ep, err := NewTCP().Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ep.Close() }()
	if err := ep.Send(ep.Addr(), codecTestExtra{N: 7}); !errors.Is(err, errUnsupportedPayload) {
		t.Errorf("tcp Send of a non-wire payload: err = %v, want errUnsupportedPayload", err)
	}
	if err := Multicast(ep, []Addr{ep.Addr()}, codecTestExtra{N: 7}); !errors.Is(err, errUnsupportedPayload) {
		t.Errorf("tcp Multicast of a non-wire payload: err = %v, want errUnsupportedPayload", err)
	}
}

// TestMulticastEncodesOnce is the regression fence for the per-destination
// re-encoding bug: a TCP multicast to N destinations must serialize the
// payload exactly once.
func TestMulticastEncodesOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	netw := NewTCPWithMetrics(reg)
	src, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	var targets []Addr
	var sinks []Endpoint
	for i := 0; i < 3; i++ {
		ep, err := netw.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ep.Close() }()
		targets = append(targets, ep.Addr())
		sinks = append(sinks, ep)
	}
	if err := Multicast(src, targets, wire.Request{Client: "c", Seq: 1, Payload: []byte("fan-out")}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(metrics.TransportEncodes).Value(); got != 1 {
		t.Errorf("multicast to %d destinations encoded %d times, want 1", len(targets), got)
	}
	for i, ep := range sinks {
		select {
		case m := <-ep.Recv():
			if r, ok := m.Payload.(wire.Request); !ok || string(r.Payload) != "fan-out" {
				t.Errorf("sink %d received %#v", i, m.Payload)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("sink %d never received the multicast", i)
		}
	}
}

// frameLoop returns a function that decodes frame again on every call
// through one buffered reader and in, as a connection's read loop does; the
// rewind between calls allocates nothing.
func frameLoop(frame []byte, in interner) func() (envelope, error) {
	src := bytes.NewReader(frame)
	r := bufio.NewReaderSize(src, readBufferSize)
	return func() (envelope, error) {
		src.Reset(frame)
		r.Reset(src)
		return decodeFrame(r, in)
	}
}

// TestFrameCodecAllocs is the TCP frame path's allocation fence. The
// endpoint encodes a 64-byte Request into a warm pooled frame without
// allocating, and encodeFrame into one buffer of the frame's exact size (a
// 32 KiB frame grows once past its seed buffer instead). Through a
// connection's reader and a warm interner, a frame that fits the reader's
// buffer costs only what the receiver keeps: the 64-byte Request its payload
// copy and its interface box, a Cancel only its box. A 6 KiB Request, read
// into a body of its own that the payload aliases, costs the body and the
// box.
func TestFrameCodecAllocs(t *testing.T) {
	const from = Addr("127.0.0.1:40001")
	request := func(size int) any {
		return wire.Request{Client: "client-7", Seq: 42, Service: "bench-svc", Method: "echo",
			Payload: make([]byte, size), SentAt: time.Unix(0, 1754700000123456789)}
	}
	payload := request(64)

	ep, err := NewTCPWithMetrics(metrics.NewRegistry()).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ep.Close() }()
	pooled := func() {
		f, err := ep.(*tcpEndpoint).encode(payload, 1)
		if err != nil {
			t.Fatal(err)
		}
		f.release()
	}
	pooled() // warm the pool
	if allocs := testing.AllocsPerRun(500, pooled); allocs > 0 {
		t.Errorf("the endpoint encoding a 64 B request into a warm pooled frame: %.1f allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		if _, err := encodeFrame(from, payload); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("encoding a 64 B request: %.1f allocations, want <= 1", allocs)
	}
	bulk := request(32 << 10)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := encodeFrame(from, bulk); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("encoding a 32 KiB request: %.1f allocations, want <= 2 (a seed buffer and one growth)", allocs)
	}

	for _, c := range []struct {
		name string
		msg  any
		want float64
	}{
		{"a 64 B request", payload, 2},
		{"a cancel", wire.Cancel{Client: "client-7", Seq: 42, Service: "bench-svc"}, 1},
		{"a 6 KiB request", request(6 << 10), 2},
	} {
		frame, err := encodeFrame(from, c.msg)
		if err != nil {
			t.Fatal(err)
		}
		next := frameLoop(frame, newInterner())
		decode := func() {
			env, err := next()
			if err != nil || env.From != from || !reflect.DeepEqual(env.Payload, c.msg) {
				t.Fatalf("decoded %#v, %v; want %#v from %s", env.Payload, err, c.msg, from)
			}
		}
		if allocs := testing.AllocsPerRun(500, decode); allocs > c.want {
			t.Errorf("decoding %s through a warm interner: %.1f allocations, want <= %.0f", c.name, allocs, c.want)
		}
	}
}

// TestInternerBounded holds the per-connection interner to its bounds and to
// copy semantics: a connection that sees ever-new identifiers keeps the table
// at its cap, an over-long string never enters it, and no decoded string
// shares memory with the frame body. Byte payloads alias a body that
// decodeBinaryBody decodes, and never the reader's buffer a small frame is
// decoded from.
func TestInternerBounded(t *testing.T) {
	// 10 000 distinct client IDs streamed over one connection's reader.
	const clients = 10_000
	var stream []byte
	for i := range clients {
		f, err := encodeFrame("127.0.0.1:40001", wire.Request{Client: wire.ClientID(fmt.Sprintf("client-%05d", i)), Seq: wire.SeqNo(i), Service: "svc"})
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, f...)
	}
	in := newInterner()
	r := bufio.NewReaderSize(bytes.NewReader(stream), readBufferSize)
	for i := range clients {
		env, err := decodeFrame(r, in)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got, want := env.Payload.(wire.Request).Client, wire.ClientID(fmt.Sprintf("client-%05d", i)); got != want {
			t.Fatalf("frame %d: Client %q, want %q", i, got, want)
		}
		if len(in) > internMaxEntries {
			t.Fatalf("after %d distinct clients the table holds %d entries, cap %d", i+1, len(in), internMaxEntries)
		}
	}
	if _, err := decodeFrame(r, in); !errors.Is(err, io.EOF) {
		t.Errorf("after the last frame: err = %v, want io.EOF", err)
	}

	// A string over the length cap is decoded but bypasses the table; one at
	// the cap enters it.
	in = newInterner()
	for _, n := range []int{internMaxLen + 1, 4 << 10, internMaxLen} {
		client := strings.Repeat("x", n)
		frame, err := encodeFrame("a", wire.Cancel{Client: wire.ClientID(client), Service: "svc"})
		if err != nil {
			t.Fatal(err)
		}
		env, err := decodeFrame(bufio.NewReader(bytes.NewReader(frame)), in)
		if err != nil {
			t.Fatal(err)
		}
		if got := env.Payload.(wire.Cancel).Client; string(got) != client {
			t.Errorf("%d-byte client decoded as %d bytes", n, len(got))
		}
		if _, held := in[client]; held != (n <= internMaxLen) {
			t.Errorf("%d-byte string in the table: %v, want %v (cap %d)", n, held, n <= internMaxLen, internMaxLen)
		}
	}

	// Overwriting the body after decodeBinaryBody: on the plain path, on
	// first sight (the string enters the table) and on a hit, every string
	// keeps its value; the payload is the one field that aliases the body.
	in = newInterner()
	frame, err := encodeFrame("sender:1", wire.Response{Client: "client-1", Replica: "replica-1", Service: "svc", Payload: []byte("reply"), Err: "late"})
	if err != nil {
		t.Fatal(err)
	}
	for pass, table := range []interner{nil, in, in} {
		body := append([]byte(nil), frame[4:]...)
		env, err := decodeBinaryBody(body, table)
		if err != nil {
			t.Fatal(err)
		}
		for i := range body {
			body[i] = 0xFF
		}
		got := env.Payload.(wire.Response)
		if env.From != "sender:1" || got.Client != "client-1" || got.Replica != "replica-1" || got.Service != "svc" || got.Err != "late" {
			t.Errorf("pass %d: strings changed with the body: from %q, %+v", pass, env.From, got)
		}
		if !bytes.Equal(got.Payload, bytes.Repeat([]byte{0xFF}, len("reply"))) {
			t.Errorf("pass %d: payload %q does not alias the body", pass, got.Payload)
		}
	}

	// The same small frame decoded through a connection's reader, which then
	// reads on over its buffer: the payload was copied out, so it keeps its
	// value too.
	for pass, table := range []interner{nil, in} {
		env, err := decodeThenOverwrite(frame, table)
		if err != nil {
			t.Fatal(err)
		}
		if got := env.Payload.(wire.Response); string(got.Payload) != "reply" || got.Client != "client-1" || env.From != "sender:1" {
			t.Errorf("pass %d: a reader-decoded frame changed with the reader's buffer: from %q, %+v", pass, env.From, got)
		}
	}
}
