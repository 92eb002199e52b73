package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// maxFrameSize bounds a decoded frame to keep a malformed or hostile peer
// from forcing an unbounded allocation.
const maxFrameSize = 16 << 20 // 16 MiB

// envelope is the on-the-wire frame: sender address plus one wire message.
type envelope struct {
	From    Addr
	Payload any
}

// errUnsupportedPayload reports a payload outside the eleven internal/wire
// message shapes the codec covers.
var errUnsupportedPayload = errors.New("transport: payload type has no wire encoding")

// largeFrame is the Go runtime's largest small-object size. A bigger buffer
// is a run of whole pages that make must zero when it reuses them, and on a
// 32 KiB frame that zeroing costs as much as the copy into it (the loopback
// round trip measured ~14 % slower). Growing by append zeroes none of the
// bytes it copies in.
const largeFrame = 32 << 10

// encodeFrame serializes an envelope with a 4-byte big-endian length prefix
// into a buffer of its own. The message's walk (binary.go) runs twice: a
// sizing pass measures the body and a writing pass appends it, so a frame of
// up to largeFrame bytes — every frame but a bulk payload's — is one
// allocation of exactly its size; a larger one is appended into a small
// buffer that grows once it reaches the payload (two allocations for a bulk
// request). The TCP endpoint runs the same two passes into a pooled buffer
// instead (tcp.go). Only the eleven internal/wire message shapes have an
// encoding; any other payload type is refused with errUnsupportedPayload.
func encodeFrame(from Addr, payload any) ([]byte, error) {
	typ, size, err := sizeFrame(from, payload)
	if err != nil {
		return nil, err
	}
	capacity := 4 + size
	if capacity > largeFrame {
		capacity = 64
	}
	return appendFrame(make([]byte, 0, capacity), typ, size, from, payload), nil
}

// sizeFrame is the sizing pass: the payload's type code and the length of
// its body (the 4-byte prefix not included), or the error encodeFrame
// reports for it.
func sizeFrame(from Addr, payload any) (typ byte, size int, err error) {
	typ = binTypeOf(payload)
	if typ == 0 {
		return 0, 0, fmt.Errorf("transport: encoding %T: %w", payload, errUnsupportedPayload)
	}
	sized, _ := walkBody(walker{dir: sizing}, typ, &from, payload)
	size = 3 + sized.size // magic, version, type, then the walked body
	if size > maxFrameSize {
		return 0, 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	return typ, size, nil
}

// appendFrame is the writing pass: it appends the frame sizeFrame measured
// to dst.
func appendFrame(dst []byte, typ byte, size int, from Addr, payload any) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(size))
	written, _ := walkBody(walker{dir: writing, b: append(dst, binMagic, binVersion, typ)}, typ, &from, payload)
	return written.b
}

// decodeFrame reads one length-prefixed envelope from r, resolving
// identifier strings through in (nil copies every string out of the body). A
// frame that fits r's buffer is decoded in place, from the buffered bytes,
// and every byte field is copied out of them, so nothing decoded refers to a
// buffer the next frame overwrites; a larger body is read into an
// allocation of its own, which the decoded byte fields alias. A body that
// does not start with binMagic, or carries another codec version, is
// rejected with an error like any other malformed input; nothing here
// panics.
func decodeFrame(r *bufio.Reader, in interner) (envelope, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if errors.Is(err, io.EOF) && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return envelope{}, err // io.EOF passes through for clean close detection
	}
	size := binary.BigEndian.Uint32(hdr)
	if size > maxFrameSize {
		return envelope{}, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	if n := 4 + int(size); n <= r.Size() {
		buf, err := r.Peek(n)
		if err != nil {
			// Report a short body as io.ReadFull does on the other path.
			if errors.Is(err, io.EOF) && len(buf) > 4 {
				err = io.ErrUnexpectedEOF
			}
			return envelope{}, fmt.Errorf("transport: reading frame body: %w", err)
		}
		env, err := decodeBody(buf[4:], in, true)
		_, _ = r.Discard(n) // the n bytes are buffered: Peek returned them
		return env, err
	}
	_, _ = r.Discard(4) // the 4 bytes are buffered: Peek returned them
	// A large body is allocated per frame and never reused: decoded byte
	// fields alias it (binary.go).
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return envelope{}, fmt.Errorf("transport: reading frame body: %w", err)
	}
	return decodeBinaryBody(body, in)
}
