package sgx

import (
	"encoding/binary"

	"sgxelide/internal/evm"
)

// AddressSpace is the memory bus an EVM thread sees while executing inside
// an enclave: the enclave linear range (ELRANGE) backed by EPCM-checked EPC
// pages, plus ordinary untrusted application memory, which enclave code may
// read and write (as on real SGX) but never execute.
//
// An AddressSpace caches nothing: every access finds its EPC page by
// indexing the enclave's page slice with (addr-Base)/PageSize, a bounds
// check and a load, and checks that page's EPCM entry. The VM's memoized
// code generation (evm/icache.go) is the only cache above it.
type AddressSpace struct {
	Enclave   *Enclave
	Untrusted *evm.FlatMem

	// PageTrace, when non-nil, receives the page-granular access sequence
	// of enclave execution — the controlled-channel observation a malicious
	// OS makes through page-fault manipulation (Xu et al., Oakland'15).
	// Page contents are never exposed, only (page number, access kind),
	// exactly the attacker's view the paper's §7 discusses.
	PageTrace func(page uint64, kind evm.Access)
}

var _ evm.Bus = (*AddressSpace)(nil)
var _ evm.CodeVersioner = (*AddressSpace)(nil)

// CodeVersion implements evm.CodeVersioner: the VM may cache decoded
// instructions of a page until that page's executable bytes change.
// Unmapped pages report the enclave-wide epoch (EMODPR bumps it), which
// also covers permission restrictions on mapped pages because the epoch is
// folded into every page's reported version.
func (a *AddressSpace) CodeVersion(addr uint64) uint64 {
	pg := a.Enclave.page(addr)
	if pg == nil {
		return a.Enclave.codeVersion
	}
	return pg.writeGen + a.Enclave.codeVersion<<32
}

// inELRange reports whether addr falls inside the enclave linear range.
func (a *AddressSpace) inELRange(addr uint64) bool {
	return addr-a.Enclave.Base < a.Enclave.Size // wraps for addr < Base
}

// Contains reports whether the n bytes at addr lie wholly inside ELRANGE
// or wholly inside untrusted memory: the only places a buffer enclave code
// hands to a library routine can be.
func (a *AddressSpace) Contains(addr, n uint64) bool {
	e, u := a.Enclave, a.Untrusted
	return within(addr, n, e.Base, e.Size) || within(addr, n, u.Base, uint64(len(u.Data)))
}

// within reports whether [addr, addr+n) lies inside [base, base+size),
// without overflowing for any n.
func within(addr, n, base, size uint64) bool {
	return addr >= base && n <= size && addr-base <= size-n
}

// singlePage reports whether the n bytes at addr lie on a single page.
func singlePage(addr uint64, n int) bool {
	return (addr+uint64(n)-1)&^uint64(PageSize-1) == addr&^uint64(PageSize-1)
}

// trace reports the pages an n-byte access at addr touches to PageTrace,
// which must be set.
func (a *AddressSpace) trace(addr uint64, n int, kind evm.Access) {
	for p := addr &^ uint64(PageSize-1); p <= (addr+uint64(n)-1)&^uint64(PageSize-1); p += PageSize {
		a.PageTrace(p/PageSize, kind)
	}
}

// checked returns the EPC page holding addr if its EPCM entry permits
// kind, and the fault the access takes otherwise.
func (a *AddressSpace) checked(addr uint64, kind evm.Access) (*epcPage, *evm.Fault) {
	pg := a.Enclave.page(addr)
	if pg == nil {
		return nil, &evm.Fault{Kind: evm.FaultBadAddress, Addr: addr, Msg: "unmapped enclave page"}
	}
	var need Perm
	switch kind {
	case evm.Read:
		need = PermR
	case evm.Write:
		need = PermW
	default:
		need = PermX
	}
	if pg.perm&need == 0 {
		return nil, &evm.Fault{
			Kind: permFaultKind(kind), Addr: addr,
			Msg: "EPCM permissions " + pg.perm.String(),
		}
	}
	return pg, nil
}

// written records a write to pg: writes to executable pages move the
// page's code generation, invalidating the VM's decodes of it.
func (pg *epcPage) written() {
	if pg.perm&PermX != 0 {
		pg.writeGen++
	}
}

// access performs an enclave memory access with EPCM permission checks.
// The fast path handles accesses within a single page; accesses may legally
// span page boundaries (as the restorer's copy loop does), handled by the
// byte-wise slow path.
func (a *AddressSpace) access(addr uint64, buf []byte, kind evm.Access, write bool) *evm.Fault {
	if a.PageTrace != nil {
		a.trace(addr, len(buf), kind)
	}
	if singlePage(addr, len(buf)) {
		pg, f := a.checked(addr, kind)
		if f != nil {
			return f
		}
		off := addr & (PageSize - 1)
		if write {
			pg.written()
			copy(pg.data[off:], buf)
		} else {
			copy(buf, pg.data[off:])
		}
		return nil
	}
	for i := range buf {
		va := addr + uint64(i)
		pg, f := a.checked(va, kind)
		if f != nil {
			return f
		}
		off := va & (PageSize - 1)
		if write {
			pg.written()
			pg.data[off] = buf[i]
		} else {
			buf[i] = pg.data[off]
		}
	}
	return nil
}

func permFaultKind(kind evm.Access) evm.FaultKind {
	switch kind {
	case evm.Read:
		return evm.FaultReadPerm
	case evm.Write:
		return evm.FaultWritePerm
	default:
		return evm.FaultExecPerm
	}
}

// Fetch implements evm.Bus. Instruction fetches must come from executable
// enclave pages; enclave threads cannot execute untrusted memory.
func (a *AddressSpace) Fetch(addr uint64, dst []byte) *evm.Fault {
	if !a.inELRange(addr) {
		return &evm.Fault{Kind: evm.FaultExecPerm, Addr: addr, Msg: "fetch outside ELRANGE"}
	}
	return a.access(addr, dst, evm.Exec, false)
}

// Load implements evm.Bus. A load within one page reads the word straight
// from the page after the same trace and EPCM check access makes.
func (a *AddressSpace) Load(addr uint64, n int) (uint64, *evm.Fault) {
	if !a.inELRange(addr) {
		return a.Untrusted.Load(addr, n)
	}
	if singlePage(addr, n) {
		if a.PageTrace != nil {
			a.trace(addr, n, evm.Read)
		}
		pg, f := a.checked(addr, evm.Read)
		if f != nil {
			return 0, f
		}
		return evm.LoadLE(pg.data[addr&(PageSize-1):], n), nil
	}
	var buf [8]byte
	if f := a.access(addr, buf[:n], evm.Read, false); f != nil {
		return 0, f
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// Store implements evm.Bus, with the same single-page fast path as Load.
func (a *AddressSpace) Store(addr uint64, n int, v uint64) *evm.Fault {
	if !a.inELRange(addr) {
		return a.Untrusted.Store(addr, n, v)
	}
	if singlePage(addr, n) {
		if a.PageTrace != nil {
			a.trace(addr, n, evm.Write)
		}
		pg, f := a.checked(addr, evm.Write)
		if f != nil {
			return f
		}
		pg.written()
		evm.StoreLE(pg.data[addr&(PageSize-1):], n, v)
		return nil
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return a.access(addr, buf[:n], evm.Write, true)
}

// EnclaveReadBytes copies out enclave memory on behalf of *enclave* code
// (intrinsics modeling statically linked library routines). Requires R.
func (a *AddressSpace) EnclaveReadBytes(addr uint64, n int) ([]byte, *evm.Fault) {
	out := make([]byte, n)
	if a.inELRange(addr) {
		if f := a.access(addr, out, evm.Read, false); f != nil {
			return nil, f
		}
		return out, nil
	}
	for i := 0; i < n; i++ {
		v, f := a.Untrusted.Load(addr+uint64(i), 1)
		if f != nil {
			return nil, f
		}
		out[i] = byte(v)
	}
	return out, nil
}

// EnclaveWriteBytes writes enclave (or untrusted) memory on behalf of
// enclave code. Requires W on enclave pages.
func (a *AddressSpace) EnclaveWriteBytes(addr uint64, data []byte) *evm.Fault {
	if a.inELRange(addr) {
		return a.access(addr, data, evm.Write, true)
	}
	for i, b := range data {
		if f := a.Untrusted.Store(addr+uint64(i), 1, uint64(b)); f != nil {
			return f
		}
	}
	return nil
}
