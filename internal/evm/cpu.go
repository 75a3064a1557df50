package evm

import "fmt"

// StopReason says why VM.Run returned.
type StopReason int

const (
	StopHalt  StopReason = iota // HALT executed
	StopExit                    // EEXIT executed (enclave exit / ocall)
	StopFault                   // machine fault
)

func (r StopReason) String() string {
	switch r {
	case StopHalt:
		return "halt"
	case StopExit:
		return "eexit"
	case StopFault:
		return "fault"
	}
	return "stop?"
}

// Stop describes how execution stopped.
type Stop struct {
	Reason StopReason
	Code   uint16 // EEXIT immediate, when Reason == StopExit
	Fault  *Fault // non-nil when Reason == StopFault
}

func (s Stop) String() string {
	switch s.Reason {
	case StopExit:
		return fmt.Sprintf("eexit(%d)", s.Code)
	case StopFault:
		return s.Fault.Error()
	default:
		return s.Reason.String()
	}
}

// Intrinsic is a host-implemented routine invoked by the INTRIN instruction.
// Intrinsics model statically linked platform library code (e.g. the SGX SDK
// crypto functions): they execute with the privileges of the running code and
// access memory through the VM. An intrinsic returning a non-nil fault stops
// the machine.
type Intrinsic func(m *VM) *Fault

// VM is one EVM hardware thread.
type VM struct {
	Mem   Bus
	Reg   [NumRegs]uint64
	PC    uint64
	Steps uint64 // instructions executed so far (cumulative)

	// MaxSteps, if non-zero, bounds the number of instructions a single Run
	// call may execute before faulting with FaultStep. It guards tests and
	// hostile enclaves against infinite loops.
	MaxSteps uint64

	// Intrinsics dispatches INTRIN instructions by immediate number.
	Intrinsics map[uint16]Intrinsic

	fetchBuf  [16]byte
	decoded   Inst          // the last uncached decode
	versioner CodeVersioner // non-nil when Mem supports icache invalidation
	cache     icache

	// The icache page of the code page being executed and, while codeVerOK,
	// that page's generation (see icache.go for when it is re-queried).
	codeBase  uint64
	codePage  *icachePage
	codeVer   uint64
	codeVerOK bool
}

// New returns a VM executing against mem. When mem implements CodeVersioner
// the VM caches decoded instructions, invalidating on code writes.
func New(mem Bus) *VM {
	m := &VM{Mem: mem}
	if cv, ok := mem.(CodeVersioner); ok {
		m.versioner = cv
	}
	return m
}

// SP returns the stack pointer.
func (m *VM) SP() uint64 { return m.Reg[RegSP] }

// SetSP sets the stack pointer.
func (m *VM) SetSP(v uint64) { m.Reg[RegSP] = v }

// push pushes v on the stack.
func (m *VM) push(v uint64) *Fault {
	m.Reg[RegSP] -= 8
	m.wrote(m.Reg[RegSP], 8)
	return m.Mem.Store(m.Reg[RegSP], 8, v)
}

// wrote notes a store of n bytes at addr. If the store touches the page
// being executed, that page's generation must be read again; a store to any
// other page is seen when execution reaches it, as the PC changes page.
func (m *VM) wrote(addr uint64, n int) {
	if addr^m.codeBase < icachePageSize || (addr+uint64(n)-1)^m.codeBase < icachePageSize {
		m.codeVerOK = false
	}
}

// pop pops the top of stack.
func (m *VM) pop() (uint64, *Fault) {
	v, f := m.Mem.Load(m.Reg[RegSP], 8)
	if f == nil {
		m.Reg[RegSP] += 8
	}
	return v, f
}

// ReadBytes reads n bytes of memory at addr with read access, for use by
// intrinsics and host runtimes acting on behalf of executing code.
func (m *VM) ReadBytes(addr uint64, n int) ([]byte, *Fault) {
	out := make([]byte, n)
	for i := 0; i < n; {
		chunk := 8
		if n-i < 8 {
			chunk = 1
		}
		v, f := m.Mem.Load(addr+uint64(i), chunk)
		if f != nil {
			return nil, f
		}
		StoreLE(out[i:i+chunk], chunk, v)
		i += chunk
	}
	return out, nil
}

// WriteBytes writes b to memory at addr with write access.
func (m *VM) WriteBytes(addr uint64, b []byte) *Fault {
	for i := 0; i < len(b); {
		chunk := 8
		if len(b)-i < 8 {
			chunk = 1
		}
		v := LoadLE(b[i:i+chunk], chunk)
		if f := m.Mem.Store(addr+uint64(i), chunk, v); f != nil {
			return f
		}
		i += chunk
	}
	return nil
}

// ZeroBytes writes n zero bytes at addr with write access, like WriteBytes
// of a zero buffer but without allocating one.
func (m *VM) ZeroBytes(addr, n uint64) *Fault {
	for i := uint64(0); i < n; {
		chunk := 8
		if n-i < 8 {
			chunk = 1
		}
		if f := m.Mem.Store(addr+i, chunk, 0); f != nil {
			return f
		}
		i += uint64(chunk)
	}
	return nil
}

// Run executes instructions until the machine halts, exits, or faults.
func (m *VM) Run() Stop {
	m.codeVerOK = false
	start := m.Steps
	for {
		if m.MaxSteps != 0 && m.Steps-start >= m.MaxSteps {
			return Stop{Reason: StopFault, Fault: &Fault{Kind: FaultStep, PC: m.PC}}
		}
		stop, done := m.step()
		if done {
			return stop
		}
	}
}

// Step executes a single instruction. It returns done=true when the machine
// stopped (halt, exit, or fault); otherwise execution may continue.
func (m *VM) Step() (Stop, bool) {
	m.codeVerOK = false
	return m.step()
}

// step is Step without forgetting the memoized code generation; Run calls
// it once that is known to be current.
func (m *VM) step() (Stop, bool) {
	pc := m.PC
	var in *Inst
	var n int
	if m.versioner != nil {
		if base := pc &^ uint64(icachePageSize-1); m.codePage == nil || base != m.codeBase {
			m.codeBase, m.codePage = base, m.cache.page(base)
			m.codeVerOK = false
		}
		if !m.codeVerOK {
			m.codeVer, m.codeVerOK = m.versioner.CodeVersion(pc), true
		}
		if e := m.codePage.lookup(pc, m.codeVer); e != nil {
			in, n = &e.in, int(e.size)
		}
	}
	if in == nil {
		// Fetch the opcode byte, then the operand bytes.
		if f := m.Mem.Fetch(pc, m.fetchBuf[:1]); f != nil {
			return m.fault(f, pc)
		}
		op := Opcode(m.fetchBuf[0])
		if !op.Valid() {
			return m.fault(&Fault{Kind: FaultIllegalInst, Msg: fmt.Sprintf("opcode %#02x", byte(op))}, pc)
		}
		n = op.Length()
		if n > 1 {
			if f := m.Mem.Fetch(pc+1, m.fetchBuf[1:n]); f != nil {
				return m.fault(f, pc)
			}
		}
		var err error
		m.decoded, _, err = Decode(m.fetchBuf[:n])
		if err != nil {
			return m.fault(&Fault{Kind: FaultIllegalInst, Msg: err.Error()}, pc)
		}
		in = &m.decoded
		if m.versioner != nil {
			m.codePage.store(pc, m.codeVer, in, n)
		}
	}
	m.Steps++
	next := pc + uint64(n)

	switch in.Op {
	case NOP:
	case HALT:
		m.PC = next
		return Stop{Reason: StopHalt}, true
	case MOV:
		m.Reg[in.Rd] = m.Reg[in.Ra]
	case MOVI:
		m.Reg[in.Rd] = in.U64
	case LEA:
		m.Reg[in.Rd] = next + uint64(in.Imm)

	case ADD:
		m.Reg[in.Rd] = m.Reg[in.Ra] + m.Reg[in.Rb]
	case SUB:
		m.Reg[in.Rd] = m.Reg[in.Ra] - m.Reg[in.Rb]
	case MUL:
		m.Reg[in.Rd] = m.Reg[in.Ra] * m.Reg[in.Rb]
	case DIVU, DIVS, REMU, REMS:
		b := m.Reg[in.Rb]
		if b == 0 {
			return m.fault(&Fault{Kind: FaultDivideByZero}, pc)
		}
		a := m.Reg[in.Ra]
		switch in.Op {
		case DIVU:
			m.Reg[in.Rd] = a / b
		case REMU:
			m.Reg[in.Rd] = a % b
		case DIVS:
			if int64(a) == -1<<63 && int64(b) == -1 {
				m.Reg[in.Rd] = a // wrap like x86/RISC-V would overflow-wrap
			} else {
				m.Reg[in.Rd] = uint64(int64(a) / int64(b))
			}
		case REMS:
			if int64(a) == -1<<63 && int64(b) == -1 {
				m.Reg[in.Rd] = 0
			} else {
				m.Reg[in.Rd] = uint64(int64(a) % int64(b))
			}
		}
	case AND:
		m.Reg[in.Rd] = m.Reg[in.Ra] & m.Reg[in.Rb]
	case OR:
		m.Reg[in.Rd] = m.Reg[in.Ra] | m.Reg[in.Rb]
	case XOR:
		m.Reg[in.Rd] = m.Reg[in.Ra] ^ m.Reg[in.Rb]
	case SHL:
		m.Reg[in.Rd] = m.Reg[in.Ra] << (m.Reg[in.Rb] & 63)
	case SHRU:
		m.Reg[in.Rd] = m.Reg[in.Ra] >> (m.Reg[in.Rb] & 63)
	case SHRS:
		m.Reg[in.Rd] = uint64(int64(m.Reg[in.Ra]) >> (m.Reg[in.Rb] & 63))
	case SLT:
		m.Reg[in.Rd] = b2u(int64(m.Reg[in.Ra]) < int64(m.Reg[in.Rb]))
	case SLTU:
		m.Reg[in.Rd] = b2u(m.Reg[in.Ra] < m.Reg[in.Rb])
	case SEQ:
		m.Reg[in.Rd] = b2u(m.Reg[in.Ra] == m.Reg[in.Rb])
	case SNE:
		m.Reg[in.Rd] = b2u(m.Reg[in.Ra] != m.Reg[in.Rb])

	case ADDI:
		m.Reg[in.Rd] = m.Reg[in.Ra] + uint64(in.Imm)
	case MULI:
		m.Reg[in.Rd] = m.Reg[in.Ra] * uint64(in.Imm)
	case ANDI:
		m.Reg[in.Rd] = m.Reg[in.Ra] & uint64(in.Imm)
	case ORI:
		m.Reg[in.Rd] = m.Reg[in.Ra] | uint64(in.Imm)
	case XORI:
		m.Reg[in.Rd] = m.Reg[in.Ra] ^ uint64(in.Imm)
	case SHLI:
		m.Reg[in.Rd] = m.Reg[in.Ra] << (uint64(in.Imm) & 63)
	case SHRUI:
		m.Reg[in.Rd] = m.Reg[in.Ra] >> (uint64(in.Imm) & 63)
	case SHRSI:
		m.Reg[in.Rd] = uint64(int64(m.Reg[in.Ra]) >> (uint64(in.Imm) & 63))
	case SLTI:
		m.Reg[in.Rd] = b2u(int64(m.Reg[in.Ra]) < in.Imm)
	case SLTUI:
		m.Reg[in.Rd] = b2u(m.Reg[in.Ra] < uint64(in.Imm))

	case NOT:
		m.Reg[in.Rd] = ^m.Reg[in.Ra]
	case NEG:
		m.Reg[in.Rd] = -m.Reg[in.Ra]
	case SEXT:
		v := m.Reg[in.Ra]
		switch in.W {
		case 1:
			m.Reg[in.Rd] = uint64(int64(int8(v)))
		case 2:
			m.Reg[in.Rd] = uint64(int64(int16(v)))
		case 4:
			m.Reg[in.Rd] = uint64(int64(int32(v)))
		}
	case ZEXT:
		v := m.Reg[in.Ra]
		switch in.W {
		case 1:
			m.Reg[in.Rd] = v & 0xff
		case 2:
			m.Reg[in.Rd] = v & 0xffff
		case 4:
			m.Reg[in.Rd] = v & 0xffffffff
		}

	case BEQ:
		if m.Reg[in.Rd] == m.Reg[in.Ra] {
			next += uint64(in.Imm)
		}
	case BNE:
		if m.Reg[in.Rd] != m.Reg[in.Ra] {
			next += uint64(in.Imm)
		}
	case BLT:
		if int64(m.Reg[in.Rd]) < int64(m.Reg[in.Ra]) {
			next += uint64(in.Imm)
		}
	case BLTU:
		if m.Reg[in.Rd] < m.Reg[in.Ra] {
			next += uint64(in.Imm)
		}
	case BGE:
		if int64(m.Reg[in.Rd]) >= int64(m.Reg[in.Ra]) {
			next += uint64(in.Imm)
		}
	case BGEU:
		if m.Reg[in.Rd] >= m.Reg[in.Ra] {
			next += uint64(in.Imm)
		}

	case JMP:
		next += uint64(in.Imm)
	case JMPR:
		next = m.Reg[in.Rd]
	case CALL:
		if f := m.push(next); f != nil {
			return m.fault(f, pc)
		}
		next += uint64(in.Imm)
	case CALLR:
		target := m.Reg[in.Rd]
		if f := m.push(next); f != nil {
			return m.fault(f, pc)
		}
		next = target
	case RET:
		v, f := m.pop()
		if f != nil {
			return m.fault(f, pc)
		}
		next = v

	case LD8U, LD8S, LD16U, LD16S, LD32U, LD32S, LD64:
		addr := m.Reg[in.Ra] + uint64(in.Imm)
		var width int
		switch in.Op {
		case LD8U, LD8S:
			width = 1
		case LD16U, LD16S:
			width = 2
		case LD32U, LD32S:
			width = 4
		default:
			width = 8
		}
		v, f := m.Mem.Load(addr, width)
		if f != nil {
			return m.fault(f, pc)
		}
		switch in.Op {
		case LD8S:
			v = uint64(int64(int8(v)))
		case LD16S:
			v = uint64(int64(int16(v)))
		case LD32S:
			v = uint64(int64(int32(v)))
		}
		m.Reg[in.Rd] = v
	case ST8, ST16, ST32, ST64:
		addr := m.Reg[in.Ra] + uint64(in.Imm)
		var width int
		switch in.Op {
		case ST8:
			width = 1
		case ST16:
			width = 2
		case ST32:
			width = 4
		default:
			width = 8
		}
		m.wrote(addr, width)
		if f := m.Mem.Store(addr, width, m.Reg[in.Rd]); f != nil {
			return m.fault(f, pc)
		}

	case PUSH:
		if f := m.push(m.Reg[in.Rd]); f != nil {
			return m.fault(f, pc)
		}
	case POP:
		v, f := m.pop()
		if f != nil {
			return m.fault(f, pc)
		}
		m.Reg[in.Rd] = v

	case EEXIT:
		m.PC = next
		return Stop{Reason: StopExit, Code: uint16(in.Imm)}, true
	case INTRIN:
		fn := m.Intrinsics[uint16(in.Imm)]
		if fn == nil {
			return m.fault(&Fault{Kind: FaultIntrinsic, Msg: fmt.Sprintf("unknown intrinsic %d", in.Imm)}, pc)
		}
		// Intrinsics may inspect or modify PC (none do today), and they
		// write memory, code included, through the bus.
		m.PC = next
		m.codeVerOK = false
		if f := fn(m); f != nil {
			return m.fault(f, pc)
		}
		return Stop{}, false
	case BRK:
		return m.fault(&Fault{Kind: FaultBreak}, pc)
	default:
		return m.fault(&Fault{Kind: FaultIllegalInst, Msg: in.Op.String()}, pc)
	}

	m.PC = next
	return Stop{}, false
}

// fault finalizes a fault at pc and stops the machine.
func (m *VM) fault(f *Fault, pc uint64) (Stop, bool) {
	f.PC = pc
	m.PC = pc
	return Stop{Reason: StopFault, Fault: f}, true
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
