// Package interp executes TNS object code with exact architectural
// semantics. It serves two roles from the paper:
//
//   - paired with a CISC machine cost model it is the TNS hardware baseline
//     (CLX 800, VLX, Cyclone), and
//   - paired with the software-interpreter cost model it is the run-time
//     fallback interpreter on the Cyclone/R, entered at puzzle points and
//     left again at the next call or return that finds a register-exact
//     point in the PMap.
//
// The interpreter counts executed instructions per cost class rather than
// cycles, so a single run can be priced under every machine model.
package interp

import (
	"bytes"
	"fmt"

	"tnsr/internal/codefile"
	"tnsr/internal/obs"
	"tnsr/internal/pgo"
	"tnsr/internal/tns"
)

// Space identifies a code space: the user codefile or the system library.
type Space uint8

const (
	SpaceUser Space = 0
	SpaceLib  Space = 1
)

// ENV word packing (stored in stack markers). Only RP, the trap-enable bit
// and the code-space bit are architecturally recorded; the CC/K/V flags are
// not part of the stored ENV in this ISA revision (CC is only observable
// through conditional branches, K/V only through overflow traps), which is
// what lets the Accelerator elide dead flag computation without the marker
// stores betraying the difference.
const (
	envRPShift    = 0 // bits 0..2
	envTBit       = 1 << 7
	envSpaceBit   = 1 << 8
	HaltReturnP   = 0xFFFF // sentinel return address that halts the machine
	initialMargin = 4      // words between globals and the first frame
)

// Profile counts executed instructions by cost class for pricing under the
// machine models, plus the units moved by long-running instructions.
type Profile struct {
	Counts    [tns.NumCostClasses]int64
	LongUnits int64
	Instrs    int64
}

// Add accumulates other into p.
func (p *Profile) Add(other *Profile) {
	for i := range p.Counts {
		p.Counts[i] += other.Counts[i]
	}
	p.LongUnits += other.LongUnits
	p.Instrs += other.Instrs
}

// Sub returns p minus other, for deltas across an execution interlude.
func (p *Profile) Sub(other *Profile) Profile {
	var d Profile
	for i := range p.Counts {
		d.Counts[i] = p.Counts[i] - other.Counts[i]
	}
	d.LongUnits = p.LongUnits - other.LongUnits
	d.Instrs = p.Instrs - other.Instrs
	return d
}

// Machine is the complete architectural state of a TNS processor plus the
// mapped codefiles.
type Machine struct {
	// Register barrel and RP.
	R  [8]uint16
	RP uint8
	// Control state.
	P     uint16
	Space Space
	L, S  uint16
	// ENV flags. CC is -1, 0 or +1.
	CC   int8
	K, V bool
	T    bool
	// Data space, shared with the simulator under a mixed-mode runner;
	// read and written through Word and SetWord.
	mem *Memory

	User *codefile.File
	Lib  *codefile.File // may be nil

	Console bytes.Buffer

	Halted     bool
	ExitStatus uint16
	Trap       int
	TrapP      uint16 // address of the trapping instruction

	Prof Profile

	// StoreTrace, when non-nil, receives every data-memory store as
	// (address, value) pairs; the translation-fidelity property tests use
	// it to check that translated code performs exactly the same sequence
	// of stores as the original CISC code, as the paper requires.
	StoreTrace func(addr uint16, value uint16)

	// Obs, when non-nil, records per-instruction mode residency; the hook
	// fires once per counted instruction, so its totals match Prof.Instrs
	// exactly. Nil costs one comparison per step.
	Obs *obs.Recorder

	// PGO, when non-nil, captures the facts profile-guided retranslation
	// feeds back to the Accelerator: resolved call targets, dynamic result
	// sizes observed at returns, CASE jump targets, and interpreted
	// residency. Same contract as Obs: nil costs one comparison per hook.
	PGO *pgo.Capture
}

// Memory is the TNS data space as big-endian bytes: word w is bytes 2w
// (high) and 2w+1, and a TNS byte address indexes it directly. This is
// the simulators' data-memory layout, so the interpreter and translated
// code can run over one image.
type Memory [2 * tns.DataWords]byte

// New creates a machine with the user codefile (and optional library)
// loaded: globals initialized from the data image, L and S placed above the
// globals, and P at the main procedure with a halt-sentinel stack marker.
func New(user, lib *codefile.File) *Machine {
	return NewOn(new(Memory), user, lib)
}

// NewOn is New over a caller-supplied, zeroed data space; a mixed-mode
// runner passes the data-space prefix of its simulator's memory.
func NewOn(mem *Memory, user, lib *codefile.File) *Machine {
	m := &Machine{
		mem:  mem,
		User: user,
		Lib:  lib,
		RP:   tns.RPEmpty,
	}
	for _, f := range []*codefile.File{user, lib} {
		if f == nil {
			continue
		}
		for _, seg := range f.Data {
			// A segment running past the data space is truncated.
			for i, w := range seg.Words[:min(len(seg.Words), tns.DataWords-int(seg.Addr))] {
				m.SetWord(seg.Addr+uint16(i), w)
			}
		}
	}
	base := user.GlobalWords + initialMargin
	if lib != nil && lib.GlobalWords > user.GlobalWords {
		base = lib.GlobalWords + initialMargin
	}
	// Push the initial stack marker so main's EXIT halts cleanly.
	m.S = base
	m.store(m.S+1, HaltReturnP)
	m.store(m.S+2, m.packENV())
	m.store(m.S+3, 0)
	m.S += tns.MarkerWords
	m.L = m.S
	m.P = user.Procs[user.MainPEP].Entry
	m.Space = SpaceUser
	return m
}

// CodeFile returns the codefile for a space.
func (m *Machine) CodeFile(s Space) *codefile.File {
	if s == SpaceLib {
		return m.Lib
	}
	return m.User
}

func (m *Machine) code() []uint16 { return m.CodeFile(m.Space).Code }

func (m *Machine) packENV() uint16 {
	env := uint16(m.RP)
	if m.T {
		env |= envTBit
	}
	if m.Space == SpaceLib {
		env |= envSpaceBit
	}
	return env
}

// PackENV exposes the ENV encoding for the translated-code runtime, which
// must build identical stack markers.
func PackENV(rp uint8, t bool, space Space) uint16 {
	m := Machine{RP: rp, T: t, Space: space}
	return m.packENV()
}

// UnpackENVSpace extracts the code-space bit from a packed ENV word.
func UnpackENVSpace(env uint16) Space {
	if env&envSpaceBit != 0 {
		return SpaceLib
	}
	return SpaceUser
}

func (m *Machine) push(v uint16) {
	m.RP = (m.RP + 1) & 7
	m.R[m.RP] = v
}

func (m *Machine) pop() uint16 {
	v := m.R[m.RP]
	m.RP = (m.RP - 1) & 7
	return v
}

func (m *Machine) top() uint16 { return m.R[m.RP] }

func (m *Machine) setTop(v uint16) { m.R[m.RP] = v }

// Memory returns the data space the machine runs over.
func (m *Machine) Memory() *Memory { return m.mem }

// Rebind copies the data space into mem and makes mem the machine's data
// space from now on.
func (m *Machine) Rebind(mem *Memory) {
	*mem = *m.mem
	m.mem = mem
}

// Word reads data word addr.
func (m *Machine) Word(addr uint16) uint16 {
	i := uint32(addr) << 1
	return uint16(m.mem[i])<<8 | uint16(m.mem[i+1])
}

// SetWord writes data word addr without tracing (host access).
func (m *Machine) SetWord(addr, v uint16) {
	i := uint32(addr) << 1
	m.mem[i] = byte(v >> 8)
	m.mem[i+1] = byte(v)
}

func (m *Machine) store(addr, v uint16) {
	m.SetWord(addr, v)
	if m.StoreTrace != nil {
		m.StoreTrace(addr, v)
	}
}

func (m *Machine) setCC(v int16) {
	switch {
	case v < 0:
		m.CC = -1
	case v == 0:
		m.CC = 0
	default:
		m.CC = 1
	}
}

func (m *Machine) setCC32(v int32) {
	switch {
	case v < 0:
		m.CC = -1
	case v == 0:
		m.CC = 0
	default:
		m.CC = 1
	}
}

func (m *Machine) trap(code int) {
	m.Trap = code
	m.TrapP = m.P
	m.Halted = true
}

func (m *Machine) overflow() {
	m.V = true
	if m.T {
		m.trap(tns.TrapOverflow)
	}
}

// setV records the overflow outcome of a V-writing operation: V is written
// (not merely set) by every such operation, so a non-overflowing ADD clears
// a stale V.
func (m *Machine) setV(v bool) {
	if v {
		m.overflow()
	} else {
		m.V = false
	}
}

// TransferKind describes the control transfer a Step performed, so a
// mixed-mode driver can probe the PMap for a register-exact re-entry point.
type TransferKind uint8

const (
	TransferNone TransferKind = iota
	TransferCall              // PCAL/SCAL/XCAL completed; P is the entry
	TransferExit              // EXIT completed; P is the return point
)

// Step executes one instruction. It returns the kind of call/return
// transfer performed, if any. The machine must not be halted.
func (m *Machine) Step() TransferKind {
	code := m.code()
	if int(m.P) >= len(code) {
		m.trap(tns.TrapBadOp)
		return TransferNone
	}
	w := code[m.P]
	in := tns.Decode(w)
	m.Prof.Counts[in.Class()]++
	m.Prof.Instrs++
	if m.Obs != nil {
		m.Obs.InterpStep(uint8(m.Space), m.P)
	}
	if m.PGO != nil {
		m.PGO.InterpStep(uint8(m.Space), m.P)
	}
	pc := m.P
	m.P++ // default: fall through; transfers overwrite
	switch in.Major {
	case tns.MajLoad, tns.MajStor, tns.MajLdb, tns.MajStb,
		tns.MajLdd, tns.MajStd:
		m.memOp(in)
	case tns.MajControl:
		return m.controlOp(in, pc)
	case tns.MajSpecial:
		return m.specialOp(in, pc)
	}
	return TransferNone
}

// Run executes until the machine halts or maxInstrs instructions have
// executed (0 means no limit). It returns an error on runaway execution.
func (m *Machine) Run(maxInstrs int64) error {
	start := m.Prof.Instrs
	for !m.Halted {
		m.Step()
		if maxInstrs > 0 && m.Prof.Instrs-start >= maxInstrs {
			return fmt.Errorf("interp: exceeded %d instructions at P=%d", maxInstrs, m.P)
		}
	}
	return nil
}

func (m *Machine) effAddr(in tns.Instr) uint16 {
	var base uint16
	var disp = in.Disp
	switch in.Mode {
	case tns.ModeG:
		base = 0
	case tns.ModeL:
		base = m.L
	case tns.ModeLN:
		base = m.L - disp
		disp = 0
	case tns.ModeS:
		base = m.S - disp
		disp = 0
	}
	ea := base + disp
	if in.Ind {
		ea = m.Word(ea)
	}
	if in.Idx {
		ea += m.pop()
	}
	return ea
}

// effByteAddr computes a byte address for LDB/STB: the direct or indirect
// cell yields a 16-bit byte address; indexing adds bytes. Without
// indirection, the direct cell address itself is converted to a byte
// address of its first byte (so LDB G+n addresses the high byte of word n).
func (m *Machine) effByteAddr(in tns.Instr) uint16 {
	var base uint16
	var disp = in.Disp
	switch in.Mode {
	case tns.ModeG:
		base = 0
	case tns.ModeL:
		base = m.L
	case tns.ModeLN:
		base = m.L - disp
		disp = 0
	case tns.ModeS:
		base = m.S - disp
		disp = 0
	}
	wa := base + disp
	var ba uint16
	if in.Ind {
		ba = m.Word(wa)
	} else {
		ba = wa * 2
	}
	if in.Idx {
		ba += m.pop()
	}
	return ba
}

func (m *Machine) loadByte(ba uint16) uint16 { return uint16(m.mem[ba]) }

// storeByte writes one byte; a store trace sees the containing word.
func (m *Machine) storeByte(ba uint16, v uint8) {
	m.mem[ba] = v
	if m.StoreTrace != nil {
		m.StoreTrace(ba>>1, m.Word(ba>>1))
	}
}

func (m *Machine) memOp(in tns.Instr) {
	switch in.Major {
	case tns.MajLoad:
		ea := m.effAddr(in)
		v := m.Word(ea)
		m.push(v)
		m.setCC(int16(v))
	case tns.MajStor:
		// The index (if any) is above the value on the register stack at
		// the architectural level: the value is pushed first, then the
		// index. effAddr pops the index.
		ea := m.effAddr(in)
		m.store(ea, m.pop())
	case tns.MajLdb:
		ba := m.effByteAddr(in)
		v := m.loadByte(ba)
		m.push(v)
		m.setCC(int16(v))
	case tns.MajStb:
		ba := m.effByteAddr(in)
		m.storeByte(ba, uint8(m.pop()))
	case tns.MajLdd:
		ea := m.effAddr(in)
		hi, lo := m.Word(ea), m.Word(ea+1)
		m.push(hi) // high word, deeper
		m.push(lo) // low word, on top
		m.setCC32(int32(uint32(hi)<<16 | uint32(lo)))
	case tns.MajStd:
		ea := m.effAddr(in)
		lo := m.pop()
		hi := m.pop()
		m.store(ea, hi)
		m.store(ea+1, lo)
	}
}

func (m *Machine) controlOp(in tns.Instr, pc uint16) TransferKind {
	switch in.Ctl {
	case tns.CtlBUN:
		m.P = in.BranchTargetAddr(pc)
	case tns.CtlBCC:
		if m.ccMatches(in.Cond) {
			m.P = in.BranchTargetAddr(pc)
		}
	case tns.CtlBRZ:
		v := m.pop()
		if (v == 0) == (in.Cond == 0) {
			m.P = in.BranchTargetAddr(pc)
		}
	case tns.CtlPCAL:
		return m.call(m.Space, uint16(in.Target), pc)
	case tns.CtlSCAL:
		if m.Lib == nil {
			m.trap(tns.TrapBadPEP)
			return TransferNone
		}
		return m.call(SpaceLib, uint16(in.Target), pc)
	case tns.CtlEXIT:
		return m.exit(uint16(in.Target))
	}
	return TransferNone
}

func (m *Machine) ccMatches(cond uint8) bool {
	switch cond {
	case tns.CondL:
		return m.CC < 0
	case tns.CondE:
		return m.CC == 0
	case tns.CondLE:
		return m.CC <= 0
	case tns.CondG:
		return m.CC > 0
	case tns.CondNE:
		return m.CC != 0
	case tns.CondGE:
		return m.CC >= 0
	case tns.CondAlways:
		return true
	}
	return false
}

func (m *Machine) call(space Space, pep uint16, pc uint16) TransferKind {
	cf := m.CodeFile(space)
	if int(pep) >= len(cf.Procs) {
		m.trap(tns.TrapBadPEP)
		return TransferNone
	}
	if int(m.S)+tns.MarkerWords+32 >= tns.DataWords {
		m.trap(tns.TrapStackOvf)
		return TransferNone
	}
	if m.PGO != nil {
		m.PGO.CallTarget(uint8(m.Space), pc, uint8(space), pep)
	}
	m.store(m.S+1, pc+1)
	m.store(m.S+2, m.packENV())
	m.store(m.S+3, m.L)
	m.S += tns.MarkerWords
	m.L = m.S
	m.Space = space
	m.P = cf.Procs[pep].Entry
	return TransferCall
}

func (m *Machine) exit(args uint16) TransferKind {
	retP := m.Word(m.L - 2)
	env := m.Word(m.L - 1)
	oldL := m.Word(m.L)
	m.S = m.L - tns.MarkerWords - args
	m.L = oldL
	m.Space = UnpackENVSpace(env)
	// RP is NOT restored: the callee's register stack carries the function
	// result, which is the origin of the paper's RP puzzle. The marker ENV
	// holds the caller's RP as of the call, so the RP delta here is exactly
	// the dynamic result size the Accelerator had to guess statically.
	if m.PGO != nil && retP != HaltReturnP {
		m.PGO.ExitReturn(uint8(m.Space), retP, m.RP, uint8(env&7))
	}
	if retP == HaltReturnP {
		m.Halted = true
		return TransferNone
	}
	m.P = retP
	return TransferExit
}

func (m *Machine) pop32() uint32 {
	lo := m.pop()
	hi := m.pop()
	return uint32(hi)<<16 | uint32(lo)
}

func (m *Machine) push32(v uint32) {
	m.push(uint16(v >> 16))
	m.push(uint16(v))
}

func (m *Machine) specialOp(in tns.Instr, pc uint16) TransferKind {
	switch in.Sub {
	case tns.SubStack:
		return m.stackOp(in.Operand, pc)
	case tns.SubLDI:
		v := uint16(int16(int8(in.Operand)))
		m.push(v)
		m.setCC(int16(v))
	case tns.SubLDHI:
		m.setTop(m.top()<<8 | uint16(in.Operand))
	case tns.SubADDI:
		m.addWithFlags(m.pop(), uint16(int16(int8(in.Operand))), false)
	case tns.SubCMPI:
		m.setCC(compare16(int16(m.top()), int16(int8(in.Operand))))
	case tns.SubLDRA:
		m.push(m.R[in.Operand&7])
	case tns.SubSTAR:
		v := m.pop()
		m.R[in.Operand&7] = v
	case tns.SubSETRP:
		m.RP = in.Operand & 7
	case tns.SubADDS:
		m.S += uint16(int16(int8(in.Operand)))
		if int(m.S)+32 >= tns.DataWords {
			m.trap(tns.TrapStackOvf)
		}
	case tns.SubSVC:
		m.svc(in.Operand)
	case tns.SubCASE:
		m.caseJump()
	case tns.SubSHL:
		v := m.top() << (in.Operand & 15)
		m.setTop(v)
		m.setCC(int16(v))
	case tns.SubSHRL:
		v := m.top() >> (in.Operand & 15)
		m.setTop(v)
		m.setCC(int16(v))
	case tns.SubSHRA:
		v := uint16(int16(m.top()) >> (in.Operand & 15))
		m.setTop(v)
		m.setCC(int16(v))
	case tns.SubANDI:
		v := m.top() & uint16(in.Operand)
		m.setTop(v)
		m.setCC(int16(v))
	case tns.SubORI:
		v := m.top() | uint16(in.Operand)
		m.setTop(v)
		m.setCC(int16(v))
	case tns.SubLDE:
		a := m.pop32()
		if a >= 2*tns.DataWords {
			m.trap(tns.TrapAddress)
			return TransferNone
		}
		v := m.Word(uint16(a >> 1))
		m.push(v)
		m.setCC(int16(v))
	case tns.SubSTE:
		a := m.pop32()
		v := m.pop()
		if a >= 2*tns.DataWords {
			m.trap(tns.TrapAddress)
			return TransferNone
		}
		m.store(uint16(a>>1), v)
	case tns.SubLDBE:
		a := m.pop32()
		if a >= 2*tns.DataWords {
			m.trap(tns.TrapAddress)
			return TransferNone
		}
		v := uint16(m.mem[a])
		m.push(v)
		m.setCC(int16(v))
	case tns.SubSTBE:
		a := m.pop32()
		v := m.pop()
		if a >= 2*tns.DataWords {
			m.trap(tns.TrapAddress)
			return TransferNone
		}
		m.mem[a] = uint8(v)
		if m.StoreTrace != nil {
			m.StoreTrace(uint16(a>>1), m.Word(uint16(a>>1)))
		}
	case tns.SubLGA:
		m.push(uint16(in.Operand))
	case tns.SubLLA:
		m.push(m.L + uint16(int16(int8(in.Operand))))
	case tns.SubDSHL:
		v := m.pop32() << (in.Operand & 31)
		m.push32(v)
		m.setCC32(int32(v))
	case tns.SubDSHRL:
		v := m.pop32() >> (in.Operand & 31)
		m.push32(v)
		m.setCC32(int32(v))
	case tns.SubADM:
		addr := m.pop()
		v := m.pop()
		old := m.Word(addr)
		sum, k, ovf := add16(old, v)
		m.store(addr, sum)
		m.K = k
		m.setCC(int16(sum))
		m.setV(ovf)
	case tns.SubLDPL:
		m.push(uint16(in.Operand))
	case tns.SubSETT:
		m.T = in.Operand&1 != 0
	default:
		m.trap(tns.TrapBadOp)
	}
	return TransferNone
}

func (m *Machine) caseJump() {
	code := m.code()
	caseA := m.P - 1 // Step already advanced past the CASE instruction
	idx := int16(m.pop())
	n := code[m.P]
	tableBase := m.P + 1
	after := tableBase + n
	if idx < 0 || uint16(idx) >= n {
		m.P = after
	} else {
		m.P = code[tableBase+uint16(idx)]
	}
	if m.PGO != nil {
		m.PGO.CaseTarget(uint8(m.Space), caseA, m.P)
	}
}

func (m *Machine) svc(n uint8) {
	switch n {
	case tns.SvcHalt:
		m.ExitStatus = m.pop()
		m.Halted = true
	case tns.SvcPutchar:
		m.Console.WriteByte(byte(m.pop()))
	case tns.SvcPutnum:
		fmt.Fprintf(&m.Console, "%d", int16(m.pop()))
	case tns.SvcPuts:
		count := m.pop()
		ba := m.pop()
		for i := uint16(0); i < count; i++ {
			m.Console.WriteByte(byte(m.loadByte(ba + i)))
		}
		m.Prof.LongUnits += int64(count)
	default:
		m.trap(tns.TrapBadSVC)
	}
}

func compare16(a, b int16) int16 {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func add16(a, b uint16) (sum uint16, carry, overflow bool) {
	s := uint32(a) + uint32(b)
	sum = uint16(s)
	carry = s > 0xFFFF
	overflow = (a^sum)&(b^sum)&0x8000 != 0
	return
}

func sub16(a, b uint16) (diff uint16, carry, overflow bool) {
	d := uint32(a) - uint32(b)
	diff = uint16(d)
	carry = a >= b // K = no borrow
	overflow = (a^b)&(a^diff)&0x8000 != 0
	return
}

func (m *Machine) addWithFlags(a, b uint16, sub bool) {
	var sum uint16
	var k, v bool
	if sub {
		sum, k, v = sub16(a, b)
	} else {
		sum, k, v = add16(a, b)
	}
	m.push(sum)
	m.K = k
	m.setCC(int16(sum))
	m.setV(v)
}
