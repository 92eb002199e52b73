package transport

import (
	"testing"
	"time"

	"aqua/internal/wire"
)

// benchRequest is the request the codec benchmarks encode and decode.
func benchRequest() wire.Request {
	return wire.Request{Client: "c", Seq: 1, Service: "svc", Method: "get", Payload: make([]byte, 128), SentAt: time.Unix(0, 1754700000123456789)}
}

func BenchmarkCodecEncode(b *testing.B) {
	var req any = benchRequest() // boxed once, as Send receives it
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

// BenchmarkCodecDecode decodes as a TCP connection's read loop does: through
// a buffered reader and a warm interner.
func BenchmarkCodecDecode(b *testing.B) {
	frame, err := encodeFrame("from", benchRequest())
	if err != nil {
		b.Fatal(err)
	}
	next := frameLoop(frame, newInterner())
	if _, err := next(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInMemRoundTrip measures the in-memory transport's send+receive
// path, which every simulated-cluster test rides on.
func BenchmarkInMemRoundTrip(b *testing.B) {
	n := NewInMem()
	defer func() { _ = n.Close() }()
	a, err := n.Listen("a")
	if err != nil {
		b.Fatal(err)
	}
	c, err := n.Listen("c")
	if err != nil {
		b.Fatal(err)
	}
	req := wire.Request{Client: "x", Seq: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(c.Addr(), req); err != nil {
			b.Fatal(err)
		}
		<-c.Recv()
	}
}

// BenchmarkTCPRoundTrip measures a full loopback socket round trip through
// the binary codec — the E0 floor's transport component: a Request with a
// 64-byte payload from a to c, and c's echoed Response back to a.
func BenchmarkTCPRoundTrip(b *testing.B) {
	net := NewTCP()
	a, err := net.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	c, err := net.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for m := range c.Recv() {
			if req, ok := m.Payload.(wire.Request); ok {
				_ = c.Send(m.From, wire.Response{Client: req.Client, Seq: req.Seq, Service: req.Service, Payload: req.Payload})
			}
		}
	}()
	defer func() {
		_ = c.Close()
		<-echoed
	}()
	req := wire.Request{Client: "bench-client", Service: "svc", Payload: make([]byte, 64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seq++
		if err := a.Send(c.Addr(), req); err != nil {
			b.Fatal(err)
		}
		if _, ok := <-a.Recv(); !ok {
			b.Fatal("receive channel closed")
		}
	}
}
