package elide

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// realQuote mints a platform-signed quote for a one-page enclave, binding
// a fresh ECDH public key — a hello with every field at its real size.
func realQuote(tb testing.TB) (*sgx.Quote, []byte) {
	tb.Helper()
	ca, err := sgx.NewCA()
	if err != nil {
		tb.Fatal(err)
	}
	p, err := sgx.NewPlatform(sgx.Config{EPCPages: 8}, ca)
	if err != nil {
		tb.Fatal(err)
	}
	const base = 0x10000000
	e, err := p.ECreate(base, sgx.PageSize, base)
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.EAdd(e, base, sgx.PermR|sgx.PermX, make([]byte, sgx.PageSize)); err != nil {
		tb.Fatal(err)
	}
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		tb.Fatal(err)
	}
	ss, err := sgx.SignEnclave(key, e.Measure(), 1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.EInit(e, ss); err != nil {
		tb.Fatal(err)
	}
	_, pub, err := sdk.GenerateECDHKeypair()
	if err != nil {
		tb.Fatal(err)
	}
	var rdata [sgx.ReportDataSize]byte
	binding := sha256.Sum256(pub)
	copy(rdata[:], binding[:])
	report, err := p.EReport(e, sgx.QETargetInfo(), rdata)
	if err != nil {
		tb.Fatal(err)
	}
	q, err := p.QuoteReport(report)
	if err != nil {
		tb.Fatal(err)
	}
	return q, pub
}

// helloTable is one hello per kind and attest flag combination.
func helloTable(q *sgx.Quote, pub []byte) map[string]*attestMsg {
	return map[string]*attestMsg{
		"attest-three-flight": {Kind: helloAttest, Quote: q, ClientPub: pub},
		"attest-bundle":       {Kind: helloAttest, Flags: bundleMeta | bundleData, TraceID: 0xabc, SpanID: 0xdef, Quote: q, ClientPub: pub},
		"attest-meta-only":    {Kind: helloAttest, Flags: bundleMeta, Quote: q, ClientPub: pub},
		"attest-replay":       {Kind: helloAttest, Flags: helloReplay, TraceID: 1, SpanID: 2, Quote: q, ClientPub: pub},
		"attest-empty-quote":  {Kind: helloAttest, Quote: &sgx.Quote{}},
		"peer-link":           {Kind: helloPeerLink},
		"members":             {Kind: helloMembers},
	}
}

func sameHello(a, b *attestMsg) bool {
	if a.Kind != b.Kind || a.Flags != b.Flags || a.TraceID != b.TraceID || a.SpanID != b.SpanID ||
		!bytes.Equal(a.ClientPub, b.ClientPub) {
		return false
	}
	if a.Quote == nil || b.Quote == nil {
		return a.Quote == b.Quote
	}
	qa, qb := a.Quote, b.Quote
	return qa.MrEnclave == qb.MrEnclave && qa.MrSigner == qb.MrSigner && qa.ProdID == qb.ProdID &&
		qa.Data == qb.Data && bytes.Equal(qa.Signature, qb.Signature) &&
		bytes.Equal(qa.QEPubX, qb.QEPubX) && bytes.Equal(qa.QEPubY, qb.QEPubY) &&
		bytes.Equal(qa.QECert, qb.QECert)
}

// TestHelloRoundTrip: every kind survives encode → parse unchanged, and
// the parse does not alias the frame.
func TestHelloRoundTrip(t *testing.T) {
	q, pub := realQuote(t)
	for name, m := range helloTable(q, pub) {
		t.Run(name, func(t *testing.T) {
			frame := encodeHello(m)
			got, err := parseHello(frame)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if !sameHello(m, got) {
				t.Fatalf("round trip changed the hello:\n got %+v\nwant %+v", got, m)
			}
			if m.Quote == q {
				if len(frame) < 300 {
					t.Errorf("attest hello with a real quote is %d bytes, want the full quote on the wire", len(frame))
				}
				for i := range frame {
					frame[i] = 0
				}
				if !sameHello(m, got) {
					t.Fatal("parsed hello aliases the frame buffer")
				}
			}
		})
	}
}

// TestHelloRejectsMalformed: every strict prefix of a valid attest hello,
// every hello with trailing bytes, every over-long field, and every bad
// kind or flag combination is an errBadHello, never a panic.
func TestHelloRejectsMalformed(t *testing.T) {
	q, pub := realQuote(t)
	valid := encodeHello(&attestMsg{Kind: helloAttest, Flags: bundleMeta | bundleData, Quote: q, ClientPub: pub})
	reject := func(what string, b []byte) {
		t.Helper()
		if _, err := parseHello(b); !errors.Is(err, errBadHello) {
			t.Errorf("%s (%d bytes): err = %v, want errBadHello", what, len(b), err)
		}
	}
	for n := 0; n < len(valid); n++ {
		reject("truncated attest hello", valid[:n])
	}
	for name, m := range helloTable(q, pub) {
		reject("trailing byte after "+name, append(encodeHello(m), 0))
	}

	// Over-long fields: the four quote fields and the client key, each one
	// byte past sgx.MaxQuoteField.
	long := bytes.Repeat([]byte{0x5a}, sgx.MaxQuoteField+1)
	over := []struct {
		name string
		m    attestMsg
	}{
		{"signature", attestMsg{Quote: &sgx.Quote{Signature: long}}},
		{"qe pub x", attestMsg{Quote: &sgx.Quote{QEPubX: long}}},
		{"qe pub y", attestMsg{Quote: &sgx.Quote{QEPubY: long}}},
		{"qe cert", attestMsg{Quote: &sgx.Quote{QECert: long}}},
		{"client key", attestMsg{Quote: &sgx.Quote{}, ClientPub: long}},
	}
	for _, o := range over {
		o.m.Kind = helloAttest
		reject("over-long "+o.name, encodeHello(&o.m))
	}

	// A length prefix pointing past the end of the frame.
	lying := encodeHello(&attestMsg{Kind: helloAttest, Quote: &sgx.Quote{}, ClientPub: pub})
	binary.LittleEndian.PutUint16(lying[len(lying)-len(pub)-2:], uint16(len(pub)+1))
	reject("client key length past the frame", lying)

	for _, kind := range []byte{0, 4, 0xff} {
		reject("unknown kind", []byte{kind})
	}
	for _, flags := range []byte{1 << 3, 0x80, helloReplay | bundleMeta, helloReplay | bundleData} {
		b := append([]byte(nil), valid...)
		b[1] = flags
		reject("invalid flags", b)
	}
}

// TestServerRefusesUnknownHelloKind: a hello of unknown kind gets a
// refusal frame and a closed connection, not a panic.
func TestServerRefusesUnknownHelloKind(t *testing.T) {
	ca, _ := env(t)
	metrics := obs.NewRegistry()
	srv := plainServer(t, ca, WithServerMetrics(metrics))
	l := listen(t)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l) }()
	defer func() {
		cancel()
		<-served
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(conn, []byte{0x7f}); err != nil {
		t.Fatal(err)
	}
	if _, err := readResponse(conn); !errors.Is(err, ErrRefused) {
		t.Fatalf("unknown hello kind answered with %v, want a refusal", err)
	}
	if _, err := readFrame(conn); err == nil {
		t.Fatal("connection still open after a refused hello")
	}
	if got := metrics.Counter("server.panics").Load(); got != 0 {
		t.Fatalf("server.panics = %d, want 0", got)
	}
}

// FuzzHello: parseHello never panics, and whatever it accepts re-encodes
// to exactly the same bytes (the layout is canonical). The seed corpus —
// every table hello plus its truncations — runs under plain go test.
func FuzzHello(f *testing.F) {
	q := &sgx.Quote{
		MrEnclave: [32]byte{1}, MrSigner: [32]byte{2}, ProdID: 3,
		Signature: bytes.Repeat([]byte{4}, 71), QEPubX: bytes.Repeat([]byte{5}, 32),
		QEPubY: bytes.Repeat([]byte{6}, 32), QECert: bytes.Repeat([]byte{7}, 70),
	}
	for _, m := range helloTable(q, bytes.Repeat([]byte{8}, 32)) {
		b := encodeHello(m)
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(append(b, 0))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := parseHello(b)
		if err != nil {
			if !errors.Is(err, errBadHello) {
				t.Fatalf("parse error %v is not errBadHello", err)
			}
			return
		}
		if re := encodeHello(m); !bytes.Equal(re, b) {
			t.Fatalf("accepted hello re-encodes differently:\n in %x\nout %x", b, re)
		}
	})
}
