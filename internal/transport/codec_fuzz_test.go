package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"aqua/internal/wire"
)

// decodeBoth decodes data on the plain path and again through in, an
// interner the caller shares across inputs, and fails t unless the two
// agree exactly, error text included: interning changes where a string's
// bytes live, never what is decoded. When data holds a whole frame, its body
// is also decoded with decodeBinaryBody, the path whose byte fields alias
// the body, which must agree too; and the frame is decoded through a reader
// that then reads a frame of 0xFF bytes over it, which must leave the first
// envelope as it was: nothing decoded from a reader's buffer refers to it.
func decodeBoth(t *testing.T, data []byte, in interner) (envelope, error) {
	t.Helper()
	env, err := decodeFrame(uninterned(data))
	again, ierr := decodeFrame(bufio.NewReader(bytes.NewReader(data)), in)
	if fmt.Sprint(err) != fmt.Sprint(ierr) || !reflect.DeepEqual(env, again) {
		t.Fatalf("interned decode differs from plain:\n got %#v, %v\nwant %#v, %v", again, ierr, env, err)
	}
	if len(data) < 4 {
		return env, err
	}
	size := int(binary.BigEndian.Uint32(data))
	if size > maxFrameSize || 4+size > len(data) {
		return env, err
	}
	aliased, aerr := decodeBinaryBody(append([]byte(nil), data[4:4+size]...), in)
	if fmt.Sprint(err) != fmt.Sprint(aerr) || !reflect.DeepEqual(env, aliased) {
		t.Fatalf("aliasing decode differs from the reader's:\n got %#v, %v\nwant %#v, %v", aliased, aerr, env, err)
	}
	kept, kerr := decodeThenOverwrite(data[:4+size], in)
	if fmt.Sprint(err) != fmt.Sprint(kerr) || !reflect.DeepEqual(env, kept) {
		t.Fatalf("decoded envelope changed when the reader read on:\n got %#v, %v\nwant %#v, %v", kept, kerr, env, err)
	}
	return env, err
}

// decodeThenOverwrite decodes the one frame in frame through a
// connection-sized reader, then has the same reader read as many 0xFF bytes
// over its buffer, and returns the first decode's result as it stands after.
func decodeThenOverwrite(frame []byte, in interner) (envelope, error) {
	r := bufio.NewReaderSize(io.MultiReader(bytes.NewReader(frame), bytes.NewReader(bytes.Repeat([]byte{0xFF}, len(frame)))), readBufferSize)
	env, err := decodeFrame(r, in)
	_, _ = decodeFrame(r, in) // a 0xFFFFFFFF length: refused, after the read
	return env, err
}

// FuzzDecodeFrame throws arbitrary bytes at the frame decoder: it must
// never panic or over-allocate, only return errors or valid envelopes, the
// same with and without an interner and on every decode path (decodeBoth); a
// valid envelope re-encodes, into a buffer of exactly its size unless it is
// a large frame.
func FuzzDecodeFrame(f *testing.F) {
	// Seed with a valid frame and a few structured mutations.
	valid, err := encodeFrame("seed", wire.Request{Client: "c", Seq: 3, Payload: []byte("xyz")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	cancel, err := encodeFrame("seed", wire.Cancel{Client: "c", Seq: 3, Service: "svc"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cancel)
	sync, err := encodeFrame("seed", wire.DigestSync{Client: "g", Service: "svc", Seq: 1, ResolutionNanos: 1_000_000,
		Digests: []wire.WindowDigest{{Replica: "r", Method: "m", ServiceBins: []int64{2, 4}, ServiceCounts: []int64{3, 1}, QueueLength: 1, AgeNanos: 7}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sync)
	// The retired type code 9 over its old peer-snapshot request body: refused.
	f.Add(reframe([]byte{binMagic, binVersion, 9, 4, 's', 'e', 'e', 'd', 1, 'g', 3, 's', 'v', 'c'}))
	streq, err := encodeFrame("seed", wire.StateRequest{Replica: "r1", Service: "svc", WantSnapshot: true, SinceIndex: 7, Gap: "c", FromStamp: 3, ToStamp: 9})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(streq)
	stchunk, err := encodeFrame("seed", wire.StateChunk{Replica: "r1", Service: "svc", Snapshot: []byte("snap"), SnapshotIndex: 4,
		Entries: []wire.LogEntry{{Stamp: 5, Client: "c", Seq: 12, Method: "put", Payload: []byte("v")}},
		Cursors: []wire.ClientCursor{{Client: "c", Next: 6}}, Tail: 5, Done: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stchunk)
	f.Add(valid[:4])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0xAB})

	shared := newInterner()
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := decodeBoth(t, data, shared)
		if err != nil {
			return
		}
		// A successful decode must produce a well-typed envelope that
		// re-encodes: the decoder only ever builds internal/wire values.
		again, err := encodeFrame(env.From, env.Payload)
		if err != nil {
			t.Errorf("decoded envelope does not re-encode: %v", err)
		} else if len(again) <= largeFrame && len(again) != cap(again) {
			t.Errorf("%T re-encoded into %d of %d allocated bytes", env.Payload, len(again), cap(again))
		}
	})
}

// FuzzBinaryRoundTrip fences the binary codec's determinism: for arbitrary
// field values, encode → decode → re-encode must reproduce the frame
// byte-exactly, and decode, with or without an interner, must yield back
// every field.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add("from", "client", uint64(1), "svc", "m", []byte("p"), int64(1754700000123456789), true)
	f.Add("", "", uint64(0), "", "", []byte{}, int64(0), false)
	f.Add("a", "b", ^uint64(0), "c", "d", []byte{0xAB, 0x01}, int64(-1), true)
	shared := newInterner()
	f.Fuzz(func(t *testing.T, from, client string, seq uint64, service, method string, payload []byte, sentNs int64, probe bool) {
		if sentNs == zeroTimeSentinel {
			return // reserved encoding for the zero time
		}
		in := wire.Request{
			Client:  wire.ClientID(client),
			Seq:     wire.SeqNo(seq),
			Service: wire.Service(service),
			Method:  method,
			Payload: payload,
			SentAt:  time.Unix(0, sentNs),
			Probe:   probe,
		}
		frame, err := encodeFrame(Addr(from), in)
		if err != nil {
			if len(payload) > maxFrameSize-1024 {
				return
			}
			t.Fatalf("encode: %v", err)
		}
		env, err := decodeBoth(t, frame, shared)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		out, ok := env.Payload.(wire.Request)
		if !ok {
			t.Fatalf("payload type %T", env.Payload)
		}
		if env.From != Addr(from) || out.Client != in.Client || out.Seq != in.Seq ||
			out.Service != in.Service || out.Method != in.Method ||
			!bytes.Equal(out.Payload, in.Payload) || !out.SentAt.Equal(in.SentAt) || out.Probe != in.Probe {
			t.Errorf("round trip mismatch: %+v vs %+v", out, in)
		}
		again, err := encodeFrame(env.From, env.Payload)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(frame, again) {
			t.Errorf("re-encode not byte-exact:\n got %x\nwant %x", again, frame)
		}
	})
}

// FuzzStateTransferRoundTrip fences the ordered-mode frames — stamped
// requests, StateRequest, StateChunk, and the Response that piggybacks the
// ordered tail — through the codec: the binary layout must round-trip
// byte-exactly, from a frame that fills its allocation exactly unless it is
// a large one, and decode alike on every path (decodeBoth).
func FuzzStateTransferRoundTrip(f *testing.F) {
	f.Add("r1", "svc", uint64(1), uint64(9), []byte("snap"), "client", uint64(4), "put", []byte("v"), true, false, "")
	f.Add("", "", uint64(0), uint64(0), []byte{}, "", uint64(0), "", []byte{}, false, true, "pruned")
	f.Add("r2", "s", ^uint64(0), ^uint64(0), []byte{0xAB, 0x02}, "c", ^uint64(0), "m", []byte{0xAB}, true, true, "not caught up")
	shared := newInterner()
	f.Fuzz(func(t *testing.T, replica, service string, stamp, index uint64, snap []byte,
		client string, seq uint64, method string, payload []byte, done, pruned bool, errMsg string) {
		msgs := []any{
			wire.Request{Client: wire.ClientID(client), Seq: wire.SeqNo(seq), Service: wire.Service(service),
				Method: method, Payload: payload, Stamp: stamp},
			wire.StateRequest{Replica: wire.ReplicaID(replica), Service: wire.Service(service),
				WantSnapshot: done, SinceIndex: index, Gap: wire.ClientID(client), FromStamp: stamp, ToStamp: stamp + 3},
			wire.StateChunk{Replica: wire.ReplicaID(replica), Service: wire.Service(service),
				Snapshot: snap, SnapshotIndex: index,
				Entries: []wire.LogEntry{{Stamp: stamp, Client: wire.ClientID(client), Seq: wire.SeqNo(seq), Method: method, Payload: payload}},
				Cursors: []wire.ClientCursor{{Client: wire.ClientID(client), Next: stamp + 1}},
				Tail:    index, Done: done, Pruned: pruned, Err: errMsg},
			wire.Response{Client: wire.ClientID(client), Seq: wire.SeqNo(seq), Replica: wire.ReplicaID(replica),
				Service: wire.Service(service), Payload: payload,
				Perf: wire.PerfReport{ServiceTime: time.Duration(index), QueueDelay: time.Duration(stamp), QueueLength: 1, OrderedTail: index, CaughtUp: done}},
		}
		for _, in := range msgs {
			frame, err := encodeFrame(Addr(replica), in)
			if err != nil {
				if len(payload)+len(snap) > maxFrameSize-4096 {
					return
				}
				t.Fatalf("encode %T: %v", in, err)
			}
			if len(frame) <= largeFrame && len(frame) != cap(frame) {
				t.Errorf("%T encoded into %d of %d allocated bytes", in, len(frame), cap(frame))
			}
			env, err := decodeBoth(t, frame, shared)
			if err != nil {
				t.Fatalf("decode %T: %v", in, err)
			}
			again, err := encodeFrame(env.From, env.Payload)
			if err != nil {
				t.Fatalf("re-encode %T: %v", in, err)
			}
			if !bytes.Equal(frame, again) {
				t.Errorf("%T: binary re-encode not byte-exact", in)
			}
		}
	})
}

// FuzzEncodeDecodeRoundTrip checks that any request payload survives the
// codec byte-for-byte, on every decode path (decodeBoth).
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add("client-1", uint64(7), []byte("payload"))
	f.Add("", uint64(0), []byte{})
	shared := newInterner()
	f.Fuzz(func(t *testing.T, client string, seq uint64, payload []byte) {
		in := wire.Request{Client: wire.ClientID(client), Seq: wire.SeqNo(seq), Payload: payload}
		frame, err := encodeFrame("addr", in)
		if err != nil {
			if len(payload) > maxFrameSize-1024 {
				return // legitimately oversized
			}
			t.Fatalf("encode: %v", err)
		}
		env, err := decodeBoth(t, frame, shared)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		out, ok := env.Payload.(wire.Request)
		if !ok {
			t.Fatalf("payload type %T", env.Payload)
		}
		if out.Client != in.Client || out.Seq != in.Seq || !bytes.Equal(out.Payload, in.Payload) {
			t.Errorf("round trip mismatch: %+v vs %+v", out, in)
		}
	})
}
