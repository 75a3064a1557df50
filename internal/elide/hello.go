package elide

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sgxelide/internal/sgx"
)

// The hello is the first frame on every connection: one length-prefixed
// frame in a fixed binary layout that says what the connection is for.
//
//	kind(1)                                   helloPeerLink, helloMembers: nothing more
//	kind(1) || flags(1) || traceID(u64) || spanID(u64) ||
//	    quote (sgx wire form) || u16 len || ClientPub             helloAttest
//
// All integers are little-endian. The encoder writes only these fields,
// so no Go struct memory crosses the boundary; the parser rejects
// truncation, trailing bytes, unknown kinds or flag bits, and fields over
// their caps, and encodeHello(parseHello(b)) == b for every b it accepts.
const (
	helloAttest   byte = 1 // client session: attest, then the request loop
	helloPeerLink byte = 2 // fleet peer: replication link (replication.go)
	helloMembers  byte = 3 // client membership query (membership.go)
)

// Attest hello flags. The bundle bits ask for the encrypted channel
// responses to be pipelined into the attest reply, in protocol order;
// helloReplay marks the handshake of an established session replayed on
// a fresh connection (resume, don't restart), which never asks for a
// bundle.
const (
	bundleMeta  byte = 1 << 0 // REQUEST_META reply
	bundleData  byte = 1 << 1 // REQUEST_DATA reply
	helloReplay byte = 1 << 2 // session replay
)

// maxHello caps the hello frame well below MaxFrame: a real attest hello
// is about 400 bytes, and the server reads the hello before it knows who
// is asking.
const maxHello = 2048

// errBadHello marks a hello frame that does not parse.
var errBadHello = errors.New("elide: malformed hello")

// attestMsg is the decoded hello. TraceID/SpanID carry the caller's
// restore trace and current span (zero = caller not tracing) so the
// server's session span joins the client's trace; they are random
// tracer-local identifiers and carry no secret material.
type attestMsg struct {
	Kind      byte    // helloAttest, helloPeerLink or helloMembers
	Flags     byte    // attest only: bundleMeta|bundleData, or helloReplay
	_         [6]byte // explicit padding: boundary structs carry no implicit holes
	TraceID   uint64
	SpanID    uint64
	Quote     *sgx.Quote
	ClientPub []byte
}

// encodeHello returns m's hello layout.
func encodeHello(m *attestMsg) []byte {
	if m.Kind != helloAttest {
		return []byte{m.Kind}
	}
	q := m.Quote
	if q == nil {
		q = &sgx.Quote{} // sent as the zero quote, which fails verification
	}
	b := make([]byte, 0, 512)
	b = append(b, m.Kind, m.Flags)
	b = binary.LittleEndian.AppendUint64(b, m.TraceID)
	b = binary.LittleEndian.AppendUint64(b, m.SpanID)
	b = q.AppendWire(b)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(m.ClientPub)))
	return append(b, m.ClientPub...)
}

// parseHello decodes a hello frame. The result does not alias b.
func parseHello(b []byte) (*attestMsg, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty", errBadHello)
	}
	m := &attestMsg{Kind: b[0]}
	switch m.Kind {
	case helloPeerLink, helloMembers:
		if len(b) != 1 {
			return nil, fmt.Errorf("%w: %d trailing bytes", errBadHello, len(b)-1)
		}
		return m, nil
	case helloAttest:
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", errBadHello, m.Kind)
	}
	if len(b) < 1+1+16 {
		return nil, fmt.Errorf("%w: truncated header (%d bytes)", errBadHello, len(b))
	}
	m.Flags = b[1]
	if m.Flags&^(bundleMeta|bundleData|helloReplay) != 0 ||
		(m.Flags&helloReplay != 0 && m.Flags != helloReplay) {
		return nil, fmt.Errorf("%w: invalid flags %#x", errBadHello, m.Flags)
	}
	m.TraceID = binary.LittleEndian.Uint64(b[2:])
	m.SpanID = binary.LittleEndian.Uint64(b[10:])
	q, rest, err := sgx.ParseQuote(b[18:])
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errBadHello, err)
	}
	m.Quote = q
	if len(rest) < 2 {
		return nil, fmt.Errorf("%w: truncated client key", errBadHello)
	}
	n := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	if n > sgx.MaxQuoteField {
		return nil, fmt.Errorf("%w: client key of %d bytes exceeds %d", errBadHello, n, sgx.MaxQuoteField)
	}
	if len(rest) != n {
		return nil, fmt.Errorf("%w: client key field is %d bytes, frame has %d", errBadHello, n, len(rest))
	}
	m.ClientPub = append([]byte(nil), rest...)
	return m, nil
}

// attestReply assembles an attest reply: the channel public key followed
// by the encrypted channel responses the hello asked for, each behind a
// u32 length (zero = not bundled):
//
//	pub(32) || u32 metaLen || encMeta || u32 dataLen || encData
func attestReply(pub, encMeta, encData []byte) []byte {
	out := make([]byte, 0, len(pub)+8+len(encMeta)+len(encData))
	out = append(out, pub...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(encMeta)))
	out = append(out, encMeta...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(encData)))
	return append(out, encData...)
}

// parseAttestReply splits an attest reply into the channel public key and
// the bundled responses, in protocol order (empty parts dropped).
func parseAttestReply(payload []byte) (pub []byte, bundled [][]byte, err error) {
	if len(payload) < 32+8 {
		return nil, nil, fmt.Errorf("elide: malformed attest reply (%d bytes)", len(payload))
	}
	pub, rest := payload[:32], payload[32:]
	for part := 0; part < 2; part++ {
		if len(rest) < 4 {
			return nil, nil, fmt.Errorf("elide: truncated attest bundle")
		}
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint32(len(rest)) < n {
			return nil, nil, fmt.Errorf("elide: truncated attest bundle part (%d of %d bytes)", len(rest), n)
		}
		if n > 0 {
			bundled = append(bundled, rest[:n])
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("elide: %d trailing bytes after attest bundle", len(rest))
	}
	return pub, bundled, nil
}
