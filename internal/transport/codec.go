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

// encodeFrame serializes an envelope with a 4-byte big-endian length prefix.
// The message's walk (binary.go) runs twice: a sizing pass measures the body
// and a writing pass appends it, so a frame of up to largeFrame bytes — every
// frame but a bulk payload's — is one allocation of exactly its size; a
// larger one is appended into a small buffer that grows once it reaches the
// payload (two allocations for a bulk request). Only the eleven internal/wire
// message shapes have an encoding; any other payload type is refused with
// errUnsupportedPayload.
func encodeFrame(from Addr, payload any) ([]byte, error) {
	typ := binTypeOf(payload)
	if typ == 0 {
		return nil, fmt.Errorf("transport: encoding %T: %w", payload, errUnsupportedPayload)
	}
	sized, _ := walkBody(walker{dir: sizing}, typ, &from, payload)
	size := 3 + sized.size // magic, version, type, then the walked body
	if size > maxFrameSize {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	capacity := 4 + size
	if capacity > largeFrame {
		capacity = 64
	}
	frame := make([]byte, 4, capacity)
	binary.BigEndian.PutUint32(frame, uint32(size))
	written, _ := walkBody(walker{dir: writing, b: append(frame, binMagic, binVersion, typ)}, typ, &from, payload)
	return written.b, nil
}

// decodeFrame reads one length-prefixed envelope from r, resolving
// identifier strings through in (nil copies every string out of the body). A
// body that does not start with binMagic, or carries another codec version,
// is rejected with an error like any other malformed input; nothing here
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
	_, _ = r.Discard(4) // the 4 bytes are buffered: Peek returned them
	// The body is allocated per frame and never reused: decoded byte fields
	// alias it (binary.go).
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return envelope{}, fmt.Errorf("transport: reading frame body: %w", err)
	}
	return decodeBinaryBody(body, in)
}
