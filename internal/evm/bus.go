package evm

import "encoding/binary"

// Bus is the memory system the VM executes against. Implementations enforce
// their own mapping and permission model; the SGX platform implements Bus
// with EPCM-checked enclave pages plus ordinary untrusted memory, while
// FlatMem provides a permissionless space for bare programs and tests.
//
// Fetch/Load/Store access n bytes (n in 1,2,4,8 for Load/Store; arbitrary
// for Fetch). A nil *Fault means success.
type Bus interface {
	// Fetch reads len(dst) instruction bytes at addr with execute access.
	Fetch(addr uint64, dst []byte) *Fault
	// Load reads n bytes at addr (little-endian) with read access.
	Load(addr uint64, n int) (uint64, *Fault)
	// Store writes the low n bytes of v at addr with write access.
	Store(addr uint64, n int, v uint64) *Fault
}

// FlatMem is a flat byte-addressed memory with uniform RWX permission,
// used for bare (non-enclave) programs: compiler tests, assembler tests,
// and the toolchain's program-under-test harness.
type FlatMem struct {
	Base uint64
	Data []byte
}

// NewFlatMem allocates size bytes of flat memory based at base.
func NewFlatMem(base uint64, size int) *FlatMem {
	return &FlatMem{Base: base, Data: make([]byte, size)}
}

func (m *FlatMem) in(addr uint64, n int) bool {
	return addr >= m.Base && addr-m.Base+uint64(n) <= uint64(len(m.Data))
}

// Fetch implements Bus.
func (m *FlatMem) Fetch(addr uint64, dst []byte) *Fault {
	if !m.in(addr, len(dst)) {
		return &Fault{Kind: FaultBadAddress, Addr: addr}
	}
	copy(dst, m.Data[addr-m.Base:])
	return nil
}

// Load implements Bus.
func (m *FlatMem) Load(addr uint64, n int) (uint64, *Fault) {
	if !m.in(addr, n) {
		return 0, &Fault{Kind: FaultBadAddress, Addr: addr}
	}
	return LoadLE(m.Data[addr-m.Base:], n), nil
}

// Store implements Bus.
func (m *FlatMem) Store(addr uint64, n int, v uint64) *Fault {
	if !m.in(addr, n) {
		return &Fault{Kind: FaultBadAddress, Addr: addr}
	}
	StoreLE(m.Data[addr-m.Base:], n, v)
	return nil
}

// WriteBytes copies b into memory at addr (no permission check; host-side
// setup helper).
func (m *FlatMem) WriteBytes(addr uint64, b []byte) bool {
	if !m.in(addr, len(b)) {
		return false
	}
	copy(m.Data[addr-m.Base:], b)
	return true
}

// ReadBytes copies n bytes at addr out of memory.
func (m *FlatMem) ReadBytes(addr uint64, n int) ([]byte, bool) {
	if !m.in(addr, n) {
		return nil, false
	}
	out := make([]byte, n)
	copy(out, m.Data[addr-m.Base:])
	return out, true
}

// LoadLE reads an n-byte (1, 2, 4 or 8) little-endian value from b, the
// word access every Bus implementation makes.
func LoadLE(b []byte, n int) uint64 {
	switch n {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

// StoreLE writes the low n bytes (1, 2, 4 or 8) of v to b little-endian.
func StoreLE(b []byte, n int, v uint64) {
	switch n {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}
