package sgx

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
)

// ReportDataSize is the size of the user data bound into a report (enough
// for a public key hash or channel binding, as on real SGX).
const ReportDataSize = 64

// Report is the EREPORT output: the enclave identity MACed with a key only
// the target enclave (via EGETKEY) and the CPU know — local attestation.
type Report struct {
	MrEnclave  [32]byte
	MrSigner   [32]byte
	ProdID     uint16
	Data       [ReportDataSize]byte
	TargetInfo [32]byte // measurement of the enclave the report is for
	MAC        [32]byte
}

func (r *Report) macBody() []byte {
	buf := make([]byte, 0, 192)
	buf = append(buf, "REPORT"...)
	buf = append(buf, r.MrEnclave[:]...)
	buf = append(buf, r.MrSigner[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, r.ProdID)
	buf = append(buf, r.Data[:]...)
	buf = append(buf, r.TargetInfo[:]...)
	return buf
}

// EReport produces a report about enclave e, targeted at the enclave with
// measurement targetInfo, binding reportData.
func (p *Platform) EReport(e *Enclave, targetInfo [32]byte, reportData [ReportDataSize]byte) (*Report, error) {
	if !e.initialized {
		return nil, fmt.Errorf("sgx: EREPORT before EINIT")
	}
	r := &Report{
		MrEnclave:  e.MrEnclave,
		MrSigner:   e.MrSigner,
		Data:       reportData,
		TargetInfo: targetInfo,
	}
	mac := hmac.New(sha256.New, p.reportKey(targetInfo))
	mac.Write(r.macBody())
	copy(r.MAC[:], mac.Sum(nil))
	return r, nil
}

// VerifyReport is the target-enclave side of local attestation: an enclave
// whose measurement equals report.TargetInfo can check the MAC with its
// report key. The model exposes it on the platform, gated on the verifier
// enclave's identity, mirroring EGETKEY(REPORT_KEY).
func (p *Platform) VerifyReport(verifier *Enclave, r *Report) error {
	if !verifier.initialized {
		return fmt.Errorf("sgx: report verification before EINIT")
	}
	if verifier.MrEnclave != r.TargetInfo {
		return fmt.Errorf("sgx: report not targeted at this enclave")
	}
	mac := hmac.New(sha256.New, p.reportKey(r.TargetInfo))
	mac.Write(r.macBody())
	if !hmac.Equal(mac.Sum(nil), r.MAC[:]) {
		return fmt.Errorf("sgx: report MAC invalid")
	}
	return nil
}

// --- remote attestation ---

// CA is the provisioning root of trust ("Intel"): it certifies each
// platform's device attestation key at manufacture time.
type CA struct {
	key *ecdsa.PrivateKey
}

// NewCA creates a root of trust.
func NewCA() (*CA, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("sgx: CA key: %w", err)
	}
	return &CA{key: key}, nil
}

// PublicKey returns the CA verification key that relying parties (the
// SgxElide authentication server) pin.
func (ca *CA) PublicKey() *ecdsa.PublicKey { return &ca.key.PublicKey }

// signDeviceKey certifies a platform's QE public key.
func (ca *CA) signDeviceKey(pub *ecdsa.PublicKey) ([]byte, error) {
	digest := sha256.Sum256(marshalPub(pub))
	return ecdsa.SignASN1(rand.Reader, ca.key, digest[:])
}

// marshalPub serializes an ECDSA public key for hashing and transport.
func marshalPub(pub *ecdsa.PublicKey) []byte {
	buf := []byte("ECDSA-P256")
	buf = append(buf, pub.X.Bytes()...)
	buf = append(buf, 0xFF)
	buf = append(buf, pub.Y.Bytes()...)
	return buf
}

// Quote is the quoting enclave's output for remote attestation: the report
// body signed with the platform's CA-certified device key.
type Quote struct {
	MrEnclave [32]byte
	MrSigner  [32]byte
	ProdID    uint16
	Data      [ReportDataSize]byte
	_         [6]byte // explicit padding: boundary structs carry no implicit holes

	Signature []byte // device-key signature over the quote body
	QEPubX    []byte // device public key
	QEPubY    []byte
	QECert    []byte // CA signature over the device public key
}

func (q *Quote) body() []byte {
	buf := make([]byte, 0, 160)
	buf = append(buf, "QUOTE"...)
	return q.appendFixed(buf)
}

// appendFixed appends the quote's fixed-size fields: the signed body
// after its domain tag, and the head of the wire form.
func (q *Quote) appendFixed(b []byte) []byte {
	b = append(b, q.MrEnclave[:]...)
	b = append(b, q.MrSigner[:]...)
	b = binary.LittleEndian.AppendUint16(b, q.ProdID)
	return append(b, q.Data[:]...)
}

// MaxQuoteField bounds each variable-length quote field on parse; real
// values (a P-256 ASN.1 signature, a coordinate) are well under it.
const MaxQuoteField = 256

const quoteFixedSize = 32 + 32 + 2 + ReportDataSize

// AppendWire appends q's wire form to b: the fixed fields, then the four
// variable fields each behind a u16 little-endian length —
//
//	MrEnclave(32) || MrSigner(32) || ProdID(u16) || Data(64) ||
//	len || Signature || len || QEPubX || len || QEPubY || len || QECert
//
// Only the enumerated fields are written, so no struct memory (padding
// included) reaches the wire. ParseQuote rejects a field over
// MaxQuoteField.
func (q *Quote) AppendWire(b []byte) []byte {
	b = q.appendFixed(b)
	for _, f := range [...][]byte{q.Signature, q.QEPubX, q.QEPubY, q.QECert} {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(f)))
		b = append(b, f...)
	}
	return b
}

// ParseQuote parses a wire-form quote from the front of b and returns it
// with the unconsumed rest of b. The variable fields are copied, so the
// quote does not alias b. Truncation and fields over MaxQuoteField are
// errors.
func ParseQuote(b []byte) (*Quote, []byte, error) {
	if len(b) < quoteFixedSize {
		return nil, nil, fmt.Errorf("sgx: truncated quote (%d bytes)", len(b))
	}
	q := &Quote{}
	copy(q.MrEnclave[:], b)
	copy(q.MrSigner[:], b[32:])
	q.ProdID = binary.LittleEndian.Uint16(b[64:])
	copy(q.Data[:], b[66:])
	b = b[quoteFixedSize:]
	for _, f := range [...]*[]byte{&q.Signature, &q.QEPubX, &q.QEPubY, &q.QECert} {
		if len(b) < 2 {
			return nil, nil, fmt.Errorf("sgx: truncated quote field")
		}
		n := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if n > MaxQuoteField {
			return nil, nil, fmt.Errorf("sgx: quote field of %d bytes exceeds %d", n, MaxQuoteField)
		}
		if len(b) < n {
			return nil, nil, fmt.Errorf("sgx: truncated quote field (%d of %d bytes)", len(b), n)
		}
		*f = append([]byte(nil), b[:n]...)
		b = b[n:]
	}
	return q, b, nil
}

// qeTargetInfo is the pseudo-measurement reports use to target the quoting
// enclave (the QE is a platform enclave; we model its identity as a fixed
// well-known value).
var qeTargetInfo = sha256.Sum256([]byte("sgx-quoting-enclave"))

// QETargetInfo returns the target info an enclave should use in EREPORT when
// requesting a quote.
func QETargetInfo() [32]byte { return qeTargetInfo }

// QuoteReport is the quoting enclave: it verifies the local-attestation
// report (with the QE report key) and signs a quote with the device key.
func (p *Platform) QuoteReport(r *Report) (*Quote, error) {
	if r.TargetInfo != qeTargetInfo {
		return nil, fmt.Errorf("sgx: quote: report not targeted at the quoting enclave")
	}
	mac := hmac.New(sha256.New, p.reportKey(r.TargetInfo))
	mac.Write(r.macBody())
	if !hmac.Equal(mac.Sum(nil), r.MAC[:]) {
		return nil, fmt.Errorf("sgx: quote: report MAC invalid")
	}
	q := &Quote{
		MrEnclave: r.MrEnclave,
		MrSigner:  r.MrSigner,
		ProdID:    r.ProdID,
		Data:      r.Data,
		QEPubX:    p.qeKey.PublicKey.X.Bytes(),
		QEPubY:    p.qeKey.PublicKey.Y.Bytes(),
		QECert:    p.qeCert,
	}
	digest := sha256.Sum256(q.body())
	sig, err := ecdsa.SignASN1(rand.Reader, p.qeKey, digest[:])
	if err != nil {
		return nil, fmt.Errorf("sgx: quote: %w", err)
	}
	q.Signature = sig
	return q, nil
}

// VerifyQuote is the relying-party (server) side of remote attestation: it
// checks that the device key is certified by the pinned CA and that the
// quote body is signed by that device key. The caller then decides whether
// MrEnclave/MrSigner identify an enclave it trusts.
func VerifyQuote(caPub *ecdsa.PublicKey, q *Quote) error {
	if q == nil {
		return fmt.Errorf("sgx: nil quote")
	}
	qePub := &ecdsa.PublicKey{
		Curve: elliptic.P256(),
		X:     new(big.Int).SetBytes(q.QEPubX),
		Y:     new(big.Int).SetBytes(q.QEPubY),
	}
	certDigest := sha256.Sum256(marshalPub(qePub))
	if !ecdsa.VerifyASN1(caPub, certDigest[:], q.QECert) {
		return fmt.Errorf("sgx: quote: device key not certified by the trusted CA")
	}
	digest := sha256.Sum256(q.body())
	if !ecdsa.VerifyASN1(qePub, digest[:], q.Signature) {
		return fmt.Errorf("sgx: quote: signature invalid")
	}
	return nil
}
