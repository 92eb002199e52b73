//go:build !unix

package transport

import "net"

// rawWriter is the write-through, which needs a unix socket; elsewhere there
// is none and every frame goes through its destination's writer goroutine.
type rawWriter struct{}

func newRawWriter(net.Conn) *rawWriter { return nil }

func (*rawWriter) write([]byte) int { return 0 }
