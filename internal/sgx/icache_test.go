package sgx

import (
	"errors"
	"testing"

	"sgxelide/internal/evm"
)

// TestSelfModificationInvalidatesICache is the correctness condition the
// decoded-instruction cache must honor for SgxElide to work at all: after
// enclave code overwrites an already-executed instruction, the next
// execution must see the new bytes, not a stale decode.
func TestSelfModificationInvalidatesICache(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 64})
	key := devKey(t)

	// Page content: movi r0, 1; eexit 0 — with RWX permissions (the
	// sanitized-text situation).
	code := Inst2Bytes(
		evm.Inst{Op: evm.MOVI, Rd: 0, U64: 1},
		evm.Inst{Op: evm.EEXIT, Imm: 0},
	)
	page := make([]byte, PageSize)
	copy(page, code)
	e := buildEnclave(t, p, key, map[uint64][]byte{base: page},
		map[uint64]Perm{base: PermR | PermW | PermX})

	as := &AddressSpace{Enclave: e, Untrusted: evm.NewFlatMem(0x1000, 4096)}
	m := evm.New(as)
	m.MaxSteps = 1000

	run := func() uint64 {
		m.PC = base
		m.SetSP(0x1000 + 4096)
		stop := m.Run()
		if stop.Reason != evm.StopExit {
			t.Fatalf("stop = %v", stop)
		}
		return m.Reg[0]
	}

	if got := run(); got != 1 {
		t.Fatalf("first run: r0 = %d", got)
	}
	// The instruction is now cached. Patch the immediate (an enclave-mode
	// write to an X page) and re-run: the VM must decode the new bytes.
	patched := Inst2Bytes(evm.Inst{Op: evm.MOVI, Rd: 0, U64: 2})
	if f := as.EnclaveWriteBytes(base, patched); f != nil {
		t.Fatal(f)
	}
	if got := run(); got != 2 {
		t.Fatalf("after self-modification: r0 = %d, want 2 (stale icache?)", got)
	}
	// And once more through the byte-wise (page-spanning) write path.
	patched2 := Inst2Bytes(evm.Inst{Op: evm.MOVI, Rd: 0, U64: 3})
	for i, b := range patched2 {
		if f := as.EnclaveWriteBytes(base+uint64(i), []byte{b}); f != nil {
			t.Fatal(f)
		}
	}
	if got := run(); got != 3 {
		t.Fatalf("after byte-wise self-modification: r0 = %d, want 3", got)
	}
}

// link fixes up pc-relative immediates: for each index i in rel, insts[i]
// gets the displacement from its end to offset rel[i] of the code. It
// returns the encoded code.
func link(insts []evm.Inst, rel map[int]int64) []byte {
	var off int64
	for i := range insts {
		off += int64(insts[i].Len())
		if to, ok := rel[i]; ok {
			insts[i].Imm = to - off
		}
	}
	return Inst2Bytes(insts...)
}

// codeLen is the encoded length of insts.
func codeLen(insts ...evm.Inst) int64 { return int64(len(Inst2Bytes(insts...))) }

// runFrom runs m from pc with its stack in untrusted memory.
func runFrom(m *evm.VM, pc uint64) evm.Stop {
	m.PC = pc
	m.SetSP(0x1000 + 4096)
	return m.Run()
}

// patchTarget is a function that returns 1 in r0; its MOVI immediate is
// at offset 2.
var patchTarget = []evm.Inst{{Op: evm.MOVI, Rd: 0, U64: 1}, {Op: evm.RET}}

// TestSelfModificationWithinRun: enclave code stores a new immediate into
// the page it is executing from, then calls the patched instruction, all
// in one Run. The VM memoizes the executing page's code generation, so the
// store itself must make it look again.
func TestSelfModificationWithinRun(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 64})
	main := []evm.Inst{
		{Op: evm.CALL},                       // call target: decodes and caches it
		{Op: evm.LEA, Rd: 1},                 // r1 = target
		{Op: evm.MOVI, Rd: 2, U64: 2},        //
		{Op: evm.ST64, Rd: 2, Ra: 1, Imm: 2}, // target's immediate = 2
		{Op: evm.CALL},                       // call the patched target
		{Op: evm.EEXIT},
	}
	target := codeLen(main...)
	code := append(link(main, map[int]int64{0: target, 1: target, 4: target}), Inst2Bytes(patchTarget...)...)
	e := buildEnclave(t, p, devKey(t), onePage(code), map[uint64]Perm{base: PermR | PermW | PermX})
	m := evm.New(&AddressSpace{Enclave: e, Untrusted: evm.NewFlatMem(0x1000, 4096)})
	m.MaxSteps = 1000

	if stop := runFrom(m, base); stop.Reason != evm.StopExit || m.Reg[0] != 2 {
		t.Fatalf("stop %v, r0 = %d; want eexit with r0 = 2 (stale decode of the patched MOVI?)", stop, m.Reg[0])
	}
}

// TestSelfModificationStraddlingStore: a store that starts on the page
// below the executing one and ends on it rewrites the executing page too;
// its last byte must count, not only its first.
func TestSelfModificationStraddlingStore(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 64})
	code := base + PageSize // target at the start of the second page
	const mainOff = 0x40
	// The 8-byte store covers the 4 bytes below the code page, then
	// target's opcode, its register and the low two immediate bytes:
	// MOVI r0, 7.
	const patch = uint64(evm.MOVI)<<32 | 0<<40 | 7<<48
	main := []evm.Inst{
		{Op: evm.CALL}, // call target: decodes and caches it
		{Op: evm.MOVI, Rd: 1, U64: code - 4},
		{Op: evm.MOVI, Rd: 2, U64: patch},
		{Op: evm.ST64, Rd: 2, Ra: 1},
		{Op: evm.CALL},
		{Op: evm.EEXIT},
	}
	page := make([]byte, PageSize)
	copy(page, Inst2Bytes(patchTarget...))
	// link measures displacements from the start of main, so target is at
	// -mainOff relative to it.
	copy(page[mainOff:], link(main, map[int]int64{0: -mainOff, 4: -mainOff}))
	e := buildEnclave(t, p, devKey(t), map[uint64][]byte{base: nil, code: page},
		map[uint64]Perm{base: PermR | PermW, code: PermR | PermW | PermX})
	m := evm.New(&AddressSpace{Enclave: e, Untrusted: evm.NewFlatMem(0x1000, 4096)})
	m.MaxSteps = 1000

	if stop := runFrom(m, code+mainOff); stop.Reason != evm.StopExit || m.Reg[0] != 7 {
		t.Fatalf("stop %v, r0 = %d; want eexit with r0 = 7", stop, m.Reg[0])
	}
}

// TestEModPRDropsExecBetweenRuns: code that ran (and was cached) while its
// page was executable faults on the next Run once EMODPR has taken X away.
func TestEModPRDropsExecBetweenRuns(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 64, SGX2: true})
	code := Inst2Bytes(evm.Inst{Op: evm.MOVI, Rd: 0, U64: 1}, evm.Inst{Op: evm.EEXIT})
	e := buildEnclave(t, p, devKey(t), onePage(code), map[uint64]Perm{base: PermR | PermW | PermX})
	m := evm.New(&AddressSpace{Enclave: e, Untrusted: evm.NewFlatMem(0x1000, 4096)})
	m.MaxSteps = 1000

	if stop := runFrom(m, base); stop.Reason != evm.StopExit {
		t.Fatalf("first run: %v", stop)
	}
	if err := p.EModPR(e, base, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	stop := runFrom(m, base)
	if stop.Reason != evm.StopFault || stop.Fault.Kind != evm.FaultExecPerm || stop.Fault.PC != base {
		t.Fatalf("after EMODPR dropped X: %v, want an execute-permission fault at %#x", stop, base)
	}
}

// TestECreateBoundsELRange: ELRANGE comes from a possibly hostile image,
// and the page index costs a slot per ELRANGE page, so ECREATE refuses a
// range with more pages than the platform can index, or one that wraps
// the address space, with ErrELRangeTooLarge. A range larger than a small
// EPC, up to the default EPC size, is still admitted.
func TestECreateBoundsELRange(t *testing.T) {
	_, p := testEnv(t, Config{EPCPages: 64})
	for _, c := range []struct {
		name       string
		base, size uint64
	}{
		{"1<<40", base, 1 << 40},
		{"one-page-over", base, (defaultEPCPages + 1) * PageSize},
		{"wraps", ^uint64(0) &^ (PageSize - 1), 2 * PageSize},
	} {
		if _, err := p.ECreate(c.base, c.size, c.base); !errors.Is(err, ErrELRangeTooLarge) {
			t.Errorf("%s: ECreate(%#x, %#x) = %v, want ErrELRangeTooLarge", c.name, c.base, c.size, err)
		}
	}
	e, err := p.ECreate(base, defaultEPCPages*PageSize, entry)
	if err != nil {
		t.Fatalf("default-EPC-sized ELRANGE on a 64-page EPC: %v", err)
	}
	p.Destroy(e)

	_, big := testEnv(t, Config{EPCPages: 2 * defaultEPCPages})
	if _, err := big.ECreate(base, 2*defaultEPCPages*PageSize, entry); err != nil {
		t.Fatalf("ELRANGE the size of a large EPC: %v", err)
	}
}

// Inst2Bytes encodes instructions (test helper).
func Inst2Bytes(insts ...evm.Inst) []byte {
	var out []byte
	for _, in := range insts {
		out = in.Encode(out)
	}
	return out
}
