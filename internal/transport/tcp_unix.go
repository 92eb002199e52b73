//go:build unix

package transport

import (
	"net"
	"syscall"
)

// rawWriter is a connection's write-through: one write(2) on its socket that
// never waits for room in the socket's send buffer. It keeps the attempt's
// operands in its own fields and builds the attempt closure once, so a
// write-through allocates nothing; the sender's claim makes its use
// exclusive.
type rawWriter struct {
	rc      syscall.RawConn
	attempt func(fd uintptr) bool
	b       []byte
	n       int
}

// newRawWriter returns c's write-through, or nil if c exposes no socket.
func newRawWriter(c net.Conn) *rawWriter {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	w := &rawWriter{rc: rc}
	w.attempt = func(fd uintptr) bool {
		w.n, _ = syscall.Write(int(fd), w.b)
		return true // done either way: never wait for the socket to drain
	}
	return w
}

// write writes what fits of b into the socket now and returns how many
// bytes went; 0 covers a full buffer and every error alike, since the
// writer goroutine that takes the rest finds any error itself.
func (w *rawWriter) write(b []byte) int {
	w.b, w.n = b, 0
	if w.rc.Write(w.attempt) != nil {
		w.n = 0
	}
	w.b = nil
	return max(w.n, 0)
}
