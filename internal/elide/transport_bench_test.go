package elide

import (
	"bytes"
	"testing"
)

// The frame read/write benchmarks pin the per-operation allocation cost of
// the wire hot path: every restore moves an attest handshake, two channel
// requests, and (remote-data mode) the whole secret payload through these
// functions, so an allocation here is an allocation per request at load.
// Run with -benchmem; EXPERIMENTS.md records the before/after numbers.

// discardWriter is io.Discard without the WriteString fast path, so the
// benchmark measures our assembly cost, not fmt plumbing.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func BenchmarkWriteFrame(b *testing.B) {
	payload := make([]byte, 1024)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if err := writeFrame(discardWriter{}, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteResponse(b *testing.B) {
	payload := make([]byte, 1024)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if err := writeResponse(discardWriter{}, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteErrorFrame(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := writeErrorFrame(discardWriter{}, "enclave measurement mismatch"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadFrameLoop measures the server's request-loop read path: one
// frame decoded per iteration from an in-memory stream into a reused
// scratch buffer — the shape of handleConn answering channel requests
// back to back with readFrameInto.
func BenchmarkReadFrameLoop(b *testing.B) {
	var oneFrame bytes.Buffer
	if err := writeFrame(&oneFrame, make([]byte, 29)); err != nil { // channel request size
		b.Fatal(err)
	}
	stream := oneFrame.Bytes()
	r := bytes.NewReader(stream)
	var scratch []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(stream)
		req, err := readFrameInto(r, scratch)
		if err != nil {
			b.Fatal(err)
		}
		scratch = req
	}
}

// BenchmarkFrameRoundTrip is the full echo shape: write a response frame,
// read it back — the per-request frame cost both sides pay together.
func BenchmarkFrameRoundTrip(b *testing.B) {
	payload := make([]byte, 1024)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := writeResponse(&buf, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := readResponse(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHandshakeCodec is one attest hello with a real quote encoded
// and parsed — the per-connection handshake cost both sides pay together.
// SetBytes is the hello frame's payload length.
func BenchmarkHandshakeCodec(b *testing.B) {
	q, pub := realQuote(b)
	m := &attestMsg{Kind: helloAttest, Flags: bundleMeta | bundleData, TraceID: 1, SpanID: 2, Quote: q, ClientPub: pub}
	b.ReportAllocs()
	b.SetBytes(int64(len(encodeHello(m))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parseHello(encodeHello(m)); err != nil {
			b.Fatal(err)
		}
	}
}
