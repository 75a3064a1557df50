package sgx

import (
	"testing"

	"sgxelide/internal/evm"
)

// BenchmarkEnclaveInterpreter measures the VM executing enclave code
// through the EPCM-checked bus, with the decoded-instruction cache in play:
// a loop on an RWX page (the sanitized-text situation) mixing ALU work,
// LD64/ST64 to a data page and a CALL/RET, with the stack in ELRANGE too.
// evm.BenchmarkInterpreterThroughput runs on FlatMem, which has neither
// EPCM checks nor an icache.
func BenchmarkEnclaveInterpreter(b *testing.B) {
	_, p := testEnv(b, Config{EPCPages: 64})
	data := base + PageSize
	loop := []evm.Inst{
		{Op: evm.LD64, Rd: 3, Ra: 5},          // loop: r3 = data[0]
		{Op: evm.ADD, Rd: 3, Ra: 3, Rb: 1},    //   r3 += i
		{Op: evm.XOR, Rd: 4, Ra: 4, Rb: 3},    //   r4 ^= r3
		{Op: evm.ST64, Rd: 4, Ra: 5, Imm: 8},  //   data[8] = r4
		{Op: evm.ST64, Rd: 3, Ra: 5},          //   data[0] = r3
		{Op: evm.CALL},                        //   fn()
		{Op: evm.ADDI, Rd: 1, Ra: 1, Imm: 1},  //   i++
		{Op: evm.BNE, Rd: 1, Ra: 2},           //   if i != n goto loop
		{Op: evm.EEXIT},                       //
		{Op: evm.SHLI, Rd: 6, Ra: 3, Imm: 3},  // fn: r6 = r3 << 3
		{Op: evm.OR, Rd: 4, Ra: 4, Rb: 6},     //   r4 |= r6
		{Op: evm.MULI, Rd: 4, Ra: 4, Imm: 33}, //   r4 *= 33
		{Op: evm.RET},
	}
	fn := codeLen(loop[:9]...)
	code := link(loop, map[int]int64{5: fn, 7: 0})
	e := buildEnclave(b, p, devKey(b), map[uint64][]byte{base: code, data: nil},
		map[uint64]Perm{base: PermR | PermW | PermX, data: PermR | PermW})
	m := evm.New(&AddressSpace{Enclave: e, Untrusted: evm.NewFlatMem(0x1000, 4096)})

	const iters = 100_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PC = base
		m.Reg[1], m.Reg[2], m.Reg[5] = 0, iters, data
		m.SetSP(data + PageSize)
		if stop := m.Run(); stop.Reason != evm.StopExit {
			b.Fatal(stop)
		}
	}
	b.ReportMetric(float64(m.Steps)/b.Elapsed().Seconds()/1e6, "Minst/s")
}
