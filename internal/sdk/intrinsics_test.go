package sdk

import (
	"bytes"
	"fmt"
	"testing"

	"sgxelide/internal/evm"
)

// TestIntrinsicLengthsChecked: the tcrypto intrinsics that size a host
// buffer from an enclave register fault the enclave, with a bad-address
// fault and before touching memory, when the length cannot describe a
// buffer: negative as a C size_t, far beyond any memory, or one byte longer
// than the whole ELRANGE. None of them may panic or allocate that length on
// the host.
func TestIntrinsicLengthsChecked(t *testing.T) {
	_, e := buildTestEnclave(t)
	buf := writableRun(t, e, 1)
	// One page holds every operand: the sized buffer at buf, and the
	// fixed-size key, IV, MAC and output operands after it.
	const (
		keyOff = 0x100
		ivOff  = 0x200
		macOff = 0x300
		outOff = 0x400
	)
	intrinsics := []struct {
		name string
		num  uint16
		args func(n uint64) []uint64
	}{
		{"aes-gcm-encrypt", IntrinAESGCMEncrypt, func(n uint64) []uint64 {
			return []uint64{buf + keyOff, buf, n, buf + outOff, buf + ivOff, buf + macOff}
		}},
		{"aes-gcm-decrypt", IntrinAESGCMDecrypt, func(n uint64) []uint64 {
			return []uint64{buf + keyOff, buf, n, buf + outOff, buf + ivOff, buf + macOff}
		}},
		{"sha256", IntrinSHA256, func(n uint64) []uint64 { return []uint64{buf, n, buf + outOff} }},
		{"read-rand", IntrinReadRand, func(n uint64) []uint64 { return []uint64{buf, n} }},
	}
	lengths := []struct {
		name string
		n    uint64
	}{
		{"minus-one", ^uint64(0)},
		{"1<<62", 1 << 62},
		{"elrange+1", e.Encl.Size + 1},
	}
	for _, in := range intrinsics {
		for _, l := range lengths {
			t.Run(fmt.Sprintf("%s/%s", in.name, l.name), func(t *testing.T) {
				fill(t, e, buf, 0x800, 0xa5)
				for i, a := range in.args(l.n) {
					e.VM.Reg[evm.RegA0+i] = a
				}
				e.VM.Reg[evm.RegRet] = 0xbad
				f := e.VM.Intrinsics[in.num](e.VM)
				if f == nil || f.Kind != evm.FaultBadAddress || f.Addr != buf {
					t.Fatalf("fault %v, want a bad-address fault at %#x", f, buf)
				}
				if got := read(t, e, buf, 0x800); !bytes.Equal(got, bytes.Repeat([]byte{0xa5}, 0x800)) {
					t.Fatal("rejected call wrote enclave memory")
				}
				if e.VM.Reg[evm.RegRet] != 0xbad {
					t.Fatalf("rejected call set the return register to %#x", e.VM.Reg[evm.RegRet])
				}
			})
		}
	}
}

// TestIntrinsicLengthsInRange: lengths that fit, including a buffer ending
// exactly at the end of ELRANGE, still run.
func TestIntrinsicLengthsInRange(t *testing.T) {
	_, e := buildTestEnclave(t)
	buf := writableRun(t, e, 1)
	end := e.Encl.Base + e.Encl.Size
	if _, ok := e.Encl.PagePerm(end - 1); !ok {
		t.Fatal("last ELRANGE page is not mapped")
	}
	e.VM.Reg[evm.RegA0] = end - 64
	e.VM.Reg[evm.RegA0+1] = 64
	e.VM.Reg[evm.RegA0+2] = buf
	if f := e.VM.Intrinsics[IntrinSHA256](e.VM); f != nil {
		t.Fatalf("sha256 of the last 64 ELRANGE bytes: %v", f)
	}
	e.VM.Reg[evm.RegA0] = buf
	e.VM.Reg[evm.RegA0+1] = 32
	if f := e.VM.Intrinsics[IntrinReadRand](e.VM); f != nil {
		t.Fatalf("read-rand of 32 bytes: %v", f)
	}
}
