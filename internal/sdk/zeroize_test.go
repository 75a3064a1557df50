package sdk

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"testing"

	"sgxelide/internal/evm"
	"sgxelide/internal/sgx"
)

// zeroize invokes the sgx_zeroize intrinsic the way its tcrypto stub does
// and returns the handler's fault (nil on success).
func zeroize(t *testing.T, e *Enclave, addr, n uint64) *evm.Fault {
	t.Helper()
	e.VM.Reg[evm.RegA0] = addr
	e.VM.Reg[evm.RegA0+1] = n
	e.VM.Reg[evm.RegRet] = 0xbad
	f := e.VM.Intrinsics[IntrinZeroize](e.VM)
	if f == nil && e.VM.Reg[evm.RegRet] != 0 {
		t.Fatalf("sgx_zeroize returned %#x without a fault", e.VM.Reg[evm.RegRet])
	}
	return f
}

// writableRun returns the start of the first run of npages consecutive
// mapped enclave pages that all carry W.
func writableRun(t *testing.T, e *Enclave, npages int) uint64 {
	t.Helper()
	run := 0
	for va := e.Encl.Base; va < e.Encl.Base+e.Encl.Size; va += sgx.PageSize {
		perm, ok := e.Encl.PagePerm(va)
		if !ok || perm&sgx.PermW == 0 {
			run = 0
			continue
		}
		run++
		if run == npages {
			return va - uint64(npages-1)*sgx.PageSize
		}
	}
	t.Fatalf("no %d consecutive writable enclave pages", npages)
	return 0
}

func fill(t *testing.T, e *Enclave, addr uint64, n int, b byte) {
	t.Helper()
	if f := e.Space.EnclaveWriteBytes(addr, bytes.Repeat([]byte{b}, n)); f != nil {
		t.Fatal(f)
	}
}

func read(t *testing.T, e *Enclave, addr uint64, n int) []byte {
	t.Helper()
	got, f := e.Space.EnclaveReadBytes(addr, n)
	if f != nil {
		t.Fatal(f)
	}
	return got
}

// TestZeroizeSpansPageBoundary: an unaligned range straddling two pages is
// zeroed completely, and the bytes on either side are left alone.
func TestZeroizeSpansPageBoundary(t *testing.T) {
	_, e := buildTestEnclave(t)
	start := writableRun(t, e, 2) + sgx.PageSize - 13 // odd offset, crosses at +13
	const n = 45
	fill(t, e, start-8, n+16, 0xa5)
	if f := zeroize(t, e, start, n); f != nil {
		t.Fatal(f)
	}
	got := read(t, e, start-8, n+16)
	want := append(append(bytes.Repeat([]byte{0xa5}, 8), make([]byte, n)...), bytes.Repeat([]byte{0xa5}, 8)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("after zeroize:\n got %x\nwant %x", got, want)
	}
}

// TestZeroizeZeroLength: n == 0 writes nothing and succeeds.
func TestZeroizeZeroLength(t *testing.T) {
	_, e := buildTestEnclave(t)
	addr := writableRun(t, e, 1)
	fill(t, e, addr, 16, 0x5a)
	if f := zeroize(t, e, addr, 0); f != nil {
		t.Fatal(f)
	}
	if got := read(t, e, addr, 16); !bytes.Equal(got, bytes.Repeat([]byte{0x5a}, 16)) {
		t.Fatalf("zero-length zeroize wrote memory: %x", got)
	}
}

// TestZeroizeNeedsWrite: zeroing a page without W is an EPCM write fault
// returned to the caller, exactly as an enclave store there would be.
func TestZeroizeNeedsWrite(t *testing.T) {
	_, e := buildTestEnclave(t)
	for va := e.Encl.Base; va < e.Encl.Base+e.Encl.Size; va += sgx.PageSize {
		perm, ok := e.Encl.PagePerm(va)
		if !ok || perm&sgx.PermW != 0 {
			continue
		}
		before := read(t, e, va, 64)
		f := zeroize(t, e, va, 64)
		if f == nil || f.Kind != evm.FaultWritePerm {
			t.Fatalf("zeroize of a %v page: fault %v, want a write-permission fault", perm, f)
		}
		if got := read(t, e, va, 64); !bytes.Equal(got, before) {
			t.Fatal("faulting zeroize modified the page")
		}
		return
	}
	t.Fatal("test enclave has no mapped page without W")
}

// TestZeroizeAllocFree: wiping a 64 KiB buffer allocates nothing on the
// host, however large the buffer.
func TestZeroizeAllocFree(t *testing.T) {
	_, e := buildTestEnclave(t)
	const n = 64 << 10
	addr := writableRun(t, e, n/sgx.PageSize)
	fill(t, e, addr, n, 0xff)
	allocs := testing.AllocsPerRun(10, func() {
		if f := zeroize(t, e, addr, n); f != nil {
			t.Fatal(f)
		}
	})
	if allocs != 0 {
		t.Fatalf("zeroize of %d bytes: %v allocs/run, want 0", n, allocs)
	}
	if got := read(t, e, addr, n); !bytes.Equal(got, make([]byte, n)) {
		t.Fatal("64 KiB zeroize left nonzero bytes")
	}
}

// TestZeroizeOverwritesExecutingCode: sgx_zeroize, called from enclave
// code, zeroes a function on the page that code is running from; calling
// that function afterwards in the same Run must fault on the zeroed bytes
// (opcode 0x00 is illegal), not run a decode cached before the wipe.
func TestZeroizeOverwritesExecutingCode(t *testing.T) {
	const base = 0x10000000
	var (
		movi   = evm.Inst{Op: evm.MOVI, Rd: evm.RegRet, U64: 1}
		target = []evm.Inst{movi, {Op: evm.RET}}
		main   = []evm.Inst{
			{Op: evm.CALL}, // call target: decodes and caches it
			{Op: evm.LEA, Rd: evm.RegA0},
			{Op: evm.MOVI, Rd: evm.RegA0 + 1, U64: uint64(movi.Len())},
			{Op: evm.INTRIN, Imm: IntrinZeroize},
			{Op: evm.CALL}, // call the wiped target
			{Op: evm.EEXIT},
		}
	)
	// Place target after main and point the CALLs and the LEA at it.
	var targetOff int64
	for _, in := range main {
		targetOff += int64(in.Len())
	}
	var end int64
	for i := range main {
		end += int64(main[i].Len())
		if op := main[i].Op; op == evm.CALL || op == evm.LEA {
			main[i].Imm = targetOff - end
		}
	}
	page := make([]byte, sgx.PageSize)
	var code []byte
	for _, in := range append(main, target...) {
		code = in.Encode(code)
	}
	copy(page, code)

	ca, err := sgx.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	p, err := sgx.NewPlatform(sgx.Config{EPCPages: 8}, ca)
	if err != nil {
		t.Fatal(err)
	}
	encl, err := p.ECreate(base, sgx.PageSize, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EAdd(encl, base, sgx.PermR|sgx.PermW|sgx.PermX, page); err != nil {
		t.Fatal(err)
	}
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sgx.SignEnclave(key, encl.Measure(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EInit(encl, ss); err != nil {
		t.Fatal(err)
	}
	host := NewHost(p)
	space := &sgx.AddressSpace{Enclave: encl, Untrusted: host.Mem}
	e := &Enclave{Host: host, Encl: encl, VM: evm.New(space), Space: space}
	installIntrinsics(e)
	e.VM.MaxSteps = 1000
	e.VM.PC = base
	e.VM.SetSP(host.Alloc(256) + 256)

	stop := e.VM.Run()
	want := uint64(base + targetOff)
	if stop.Reason != evm.StopFault || stop.Fault.Kind != evm.FaultIllegalInst || stop.Fault.PC != want {
		t.Fatalf("call of the wiped function: %v, r0 = %d; want an illegal-instruction fault at %#x",
			stop, e.VM.Reg[evm.RegRet], want)
	}
}
