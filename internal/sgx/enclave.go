package sgx

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
)

// ErrELRangeTooLarge is returned by ECreate for a linear range with more
// pages than the platform can index. ELRANGE comes from the enclave image,
// which may be hostile, and the page index costs one slot per page of it.
var ErrELRangeTooLarge = errors.New("sgx: ECREATE: ELRANGE larger than the EPC")

// Enclave is one enclave instance (SECS + its EPC pages).
type Enclave struct {
	platform *Platform

	Base  uint64 // ELRANGE start (page aligned)
	Size  uint64 // ELRANGE size (page aligned)
	Entry uint64 // single architectural entry point (TCS entry)

	// pages indexes the EPC pages by ELRANGE page number,
	// (vaddr-Base)/PageSize; nil slots were never added.
	pages []*epcPage

	mrHash      hash.Hash // running measurement (SHA-256 chained)
	MrEnclave   [32]byte  // final measurement, fixed at EINIT
	MrSigner    [32]byte  // SHA-256 of the signer's modulus, fixed at EINIT
	initialized bool
	destroyed   bool

	// codeVersion increases whenever executable enclave memory may have
	// changed (writes to X pages, EMODPR); the VM's decoded-instruction
	// cache keys on it, keeping self-modifying code correct.
	codeVersion uint64
}

// page returns the EPC page containing vaddr, or nil when vaddr is outside
// ELRANGE or its page was never added.
func (e *Enclave) page(vaddr uint64) *epcPage {
	i := (vaddr - e.Base) / PageSize // wraps for vaddr < Base
	if i >= uint64(len(e.pages)) {
		return nil
	}
	return e.pages[i]
}

// Initialized reports whether EINIT has succeeded.
func (e *Enclave) Initialized() bool { return e.initialized }

// ECreate allocates a new enclave with the given linear range and entry
// point. The range geometry and entry are measured.
func (p *Platform) ECreate(base, size, entry uint64) (*Enclave, error) {
	if base%PageSize != 0 || size%PageSize != 0 || size == 0 {
		return nil, fmt.Errorf("sgx: ECREATE: unaligned ELRANGE %#x+%#x", base, size)
	}
	if base+size < base || size/PageSize > uint64(p.maxELRangePages()) {
		return nil, fmt.Errorf("%w: %#x+%#x", ErrELRangeTooLarge, base, size)
	}
	if entry < base || entry >= base+size {
		return nil, fmt.Errorf("sgx: ECREATE: entry %#x outside ELRANGE", entry)
	}
	e := &Enclave{
		platform: p,
		Base:     base,
		Size:     size,
		Entry:    entry,
		pages:    make([]*epcPage, size/PageSize),
		mrHash:   sha256.New(),
	}
	var rec [8 + 8 + 8 + 8]byte
	copy(rec[:], "ECREATE\x00")
	binary.LittleEndian.PutUint64(rec[8:], size)
	binary.LittleEndian.PutUint64(rec[16:], entry-base)
	e.mrHash.Write(rec[:])
	return e, nil
}

// EAdd copies one 4 KiB source page into a fresh EPC page at vaddr with the
// given EPCM permissions. The page's offset and permissions are measured;
// its *contents* are measured separately by EEXTEND, 256 bytes at a time.
func (p *Platform) EAdd(e *Enclave, vaddr uint64, perm Perm, src []byte) error {
	if e.initialized {
		return fmt.Errorf("sgx: EADD after EINIT")
	}
	if e.destroyed {
		return fmt.Errorf("sgx: EADD on destroyed enclave")
	}
	if vaddr%PageSize != 0 {
		return fmt.Errorf("sgx: EADD: unaligned vaddr %#x", vaddr)
	}
	if vaddr < e.Base || vaddr+PageSize > e.Base+e.Size {
		return fmt.Errorf("sgx: EADD: vaddr %#x outside ELRANGE", vaddr)
	}
	if len(src) != PageSize {
		return fmt.Errorf("sgx: EADD: source must be exactly one page")
	}
	if e.page(vaddr) != nil {
		return fmt.Errorf("sgx: EADD: page %#x already added", vaddr)
	}
	if perm&PermR == 0 {
		return fmt.Errorf("sgx: EADD: page must be readable")
	}
	pg, err := p.allocPage()
	if err != nil {
		return err
	}
	copy(pg.data[:], src)
	pg.vaddr = vaddr
	pg.perm = perm
	pg.enclave = e
	pg.valid = true
	e.pages[(vaddr-e.Base)/PageSize] = pg

	var rec [24]byte
	copy(rec[:], "EADD\x00\x00\x00\x00")
	binary.LittleEndian.PutUint64(rec[8:], vaddr-e.Base)
	binary.LittleEndian.PutUint64(rec[16:], uint64(perm))
	e.mrHash.Write(rec[:])
	return nil
}

// EExtendChunk is the number of bytes one EEXTEND measures.
const EExtendChunk = 256

// EExtend measures 256 bytes of an added page into the enclave measurement.
// The SDK loader invokes it 16 times to cover a full page.
func (p *Platform) EExtend(e *Enclave, vaddr uint64) error {
	if e.initialized {
		return fmt.Errorf("sgx: EEXTEND after EINIT")
	}
	if vaddr%EExtendChunk != 0 {
		return fmt.Errorf("sgx: EEXTEND: vaddr %#x not 256-byte aligned", vaddr)
	}
	pg := e.page(vaddr)
	if pg == nil {
		return fmt.Errorf("sgx: EEXTEND: no page at %#x", vaddr)
	}
	var rec [16]byte
	copy(rec[:], "EEXTEND\x00")
	binary.LittleEndian.PutUint64(rec[8:], vaddr-e.Base)
	e.mrHash.Write(rec[:])
	off := vaddr & (PageSize - 1)
	e.mrHash.Write(pg.data[off : off+EExtendChunk])
	return nil
}

// Measure returns the current measurement value without finalizing it
// (useful to the signing tool, which must predict MRENCLAVE).
func (e *Enclave) Measure() [32]byte {
	var out [32]byte
	copy(out[:], e.mrHash.Sum(nil))
	return out
}

// EInit verifies the SIGSTRUCT and, if its measurement matches the enclave's
// computed measurement, marks the enclave initialized. After EINIT no pages
// can be added or measured, and the enclave becomes enterable.
func (p *Platform) EInit(e *Enclave, ss *SigStruct) error {
	if e.initialized {
		return fmt.Errorf("sgx: EINIT: already initialized")
	}
	if err := ss.Verify(); err != nil {
		return fmt.Errorf("sgx: EINIT: %w", err)
	}
	m := e.Measure()
	//elide:vet-ignore constanttime EINIT launch check; the measurement is public and computable from the shipped binary
	if m != ss.MrEnclave {
		return fmt.Errorf("sgx: EINIT: measurement mismatch: enclave %x, sigstruct %x", m[:8], ss.MrEnclave[:8])
	}
	e.MrEnclave = m
	e.MrSigner = ss.MrSignerValue()
	e.initialized = true
	return nil
}

// EModPR restricts (never extends) the permissions of an initialized
// enclave's page — the SGXv2 mechanism the paper points to for revoking W
// from the text section after restoration. Only available on SGX2 platforms.
func (p *Platform) EModPR(e *Enclave, vaddr uint64, perm Perm) error {
	if !p.cfg.SGX2 {
		return fmt.Errorf("sgx: EMODPR: not supported on SGXv1 (permissions are fixed at EADD)")
	}
	if !e.initialized {
		return fmt.Errorf("sgx: EMODPR before EINIT")
	}
	pg := e.page(vaddr)
	if pg == nil {
		return fmt.Errorf("sgx: EMODPR: no page at %#x", vaddr)
	}
	if perm&^pg.perm != 0 {
		return fmt.Errorf("sgx: EMODPR: cannot extend permissions %v -> %v", pg.perm, perm)
	}
	pg.perm = perm
	e.codeVersion++
	return nil
}

// PagePerm returns the EPCM permissions of the page containing vaddr.
func (e *Enclave) PagePerm(vaddr uint64) (Perm, bool) {
	pg := e.page(vaddr)
	if pg == nil {
		return 0, false
	}
	return pg.perm, true
}

// Destroy returns all the enclave's pages to the EPC pool.
func (p *Platform) Destroy(e *Enclave) {
	if e.destroyed {
		return
	}
	for _, pg := range e.pages {
		if pg != nil {
			p.freePage(pg)
		}
	}
	e.pages = nil
	e.destroyed = true
	e.initialized = false
}

// --- key derivation (EGETKEY) ---

// KeyPolicy selects what identity a sealing key binds to.
type KeyPolicy int

const (
	// KeyPolicyMrEnclave binds the key to the exact enclave measurement.
	KeyPolicyMrEnclave KeyPolicy = iota
	// KeyPolicyMrSigner binds the key to the signing authority, surviving
	// enclave upgrades.
	KeyPolicyMrSigner
)

// EGetKeySeal derives the enclave's 128-bit sealing key. Callable only from
// an initialized enclave (the SDK exposes it via sgx_get_seal_key).
func (p *Platform) EGetKeySeal(e *Enclave, policy KeyPolicy) ([]byte, error) {
	if !e.initialized {
		return nil, fmt.Errorf("sgx: EGETKEY before EINIT")
	}
	switch policy {
	case KeyPolicyMrEnclave:
		return p.deriveKey("seal-mrenclave", e.MrEnclave[:]), nil
	case KeyPolicyMrSigner:
		return p.deriveKey("seal-mrsigner", e.MrSigner[:]), nil
	default:
		return nil, fmt.Errorf("sgx: EGETKEY: unknown policy %d", policy)
	}
}

// reportKey derives the key used to MAC reports targeted at the enclave
// with the given measurement.
func (p *Platform) reportKey(target [32]byte) []byte {
	return p.deriveKey("report", target[:])
}
