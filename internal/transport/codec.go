package transport

import (
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

// encodeFrame serializes an envelope with a 4-byte big-endian length prefix.
// Only the eleven internal/wire message shapes have an encoding (binary.go);
// any other payload type is refused with errUnsupportedPayload.
func encodeFrame(from Addr, payload any) ([]byte, error) {
	body, ok := appendBinaryBody(make([]byte, 4, 64), from, payload)
	if !ok {
		return nil, fmt.Errorf("transport: encoding %T: %w", payload, errUnsupportedPayload)
	}
	if len(body)-4 > maxFrameSize {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", len(body)-4)
	}
	binary.BigEndian.PutUint32(body[:4], uint32(len(body)-4))
	return body, nil
}

// decodeFrame reads one length-prefixed envelope from r. A body that does not
// start with binMagic, or carries another codec version, is rejected with an
// error like any other malformed input; nothing here panics.
func decodeFrame(r io.Reader) (envelope, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return envelope{}, err // io.EOF passes through for clean close detection
	}
	size := binary.BigEndian.Uint32(lenBuf[:])
	if size > maxFrameSize {
		return envelope{}, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return envelope{}, fmt.Errorf("transport: reading frame body: %w", err)
	}
	return decodeBinaryBody(body)
}
