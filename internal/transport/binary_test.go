package transport

// Fences for the binary codec: byte-exact round trips for every wire message
// type, refusal of payload types outside internal/wire, rejection of
// non-magic and foreign-version frames, and no panics on truncated or corrupt
// input.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"aqua/internal/metrics"
	"aqua/internal/wire"
)

// binaryCodecCases covers all seven wire message types, each with fully
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
		{"digest-sync", wire.DigestSync{Client: "g1", Service: "svc", Seq: 17, ResolutionNanos: 1_000_000, WindowSize: 5,
			Digests: []wire.WindowDigest{
				{Replica: "r1", Method: "get",
					ServiceBins: []int64{3, 5, 9}, ServiceCounts: []int64{2, 2, 1},
					QueueBins: []int64{0, 1}, QueueCounts: []int64{4, 1},
					GatewayBins: []int64{-2, 7}, GatewayCounts: []int64{1, 4},
					QueueLength: 3, AgeNanos: 250_000_000},
				{Replica: "r2", Method: "get", QueueLength: -1, AgeNanos: 0},
			}}},
		{"digest-sync-zero", wire.DigestSync{}},
		{"digest-request", wire.DigestRequest{Client: "g2", Service: "svc"}},
		{"digest-request-zero", wire.DigestRequest{}},
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
			env, err := decodeFrame(bytes.NewReader(frame))
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

// TestBinaryTimeFidelity checks wall-clock times (with monotonic readings,
// as time.Now produces) survive the codec under time.Time.Equal.
func TestBinaryTimeFidelity(t *testing.T) {
	now := time.Now()
	frame, err := encodeFrame("a", wire.Request{SentAt: now})
	if err != nil {
		t.Fatal(err)
	}
	env, err := decodeFrame(bytes.NewReader(frame))
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
	env, err = decodeFrame(bytes.NewReader(zero))
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
	_, err = decodeFrame(bytes.NewReader(reframe(body)))
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
		_, err := decodeFrame(bytes.NewReader(reframe(body)))
		if err == nil || !strings.Contains(err.Error(), "magic") {
			t.Errorf("body starting 0x%02X: err = %v, want magic rejection", first, err)
		}
	}
}

// TestBinaryRejectsUnknownType: an unknown message type code is an error.
func TestBinaryRejectsUnknownType(t *testing.T) {
	body := []byte{binMagic, binVersion, 0x7F, 0}
	if _, err := decodeFrame(bytes.NewReader(reframe(body))); err == nil {
		t.Error("unknown message type accepted")
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
			if _, err := decodeFrame(bytes.NewReader(reframe(body[:cut]))); err == nil {
				t.Errorf("%s: decoding %d/%d body bytes succeeded", tc.name, cut, len(body))
			}
		}
		extended := append(append([]byte(nil), body...), 0x00)
		if _, err := decodeFrame(bytes.NewReader(reframe(extended))); err == nil {
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

// BenchmarkBinaryEncode and BenchmarkBinaryDecode record the codec cost on
// one representative Request.
func benchRequest() wire.Request {
	return wire.Request{Client: "c", Seq: 1, Service: "svc", Method: "get", Payload: make([]byte, 128), SentAt: time.Unix(0, 1754700000123456789)}
}

func BenchmarkBinaryEncode(b *testing.B) {
	req := benchRequest()
	frame, _ := encodeFrame("from", req)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeFrame("from", req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryDecode(b *testing.B) {
	frame, err := encodeFrame("from", benchRequest())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeFrame(bytes.NewReader(frame)); err != nil {
			b.Fatal(err)
		}
	}
}
