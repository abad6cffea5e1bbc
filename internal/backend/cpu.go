package backend

import "encoding/binary"

// Trap codes raised by simulated execution. The numbering is part of the
// cross-backend runtime contract: the mixed-mode driver keys its recovery
// paths off these values.
const (
	TrapNone      = 0
	TrapOverflow  = 1 // trapping add/subtract signed overflow
	TrapAddress   = 2 // unaligned or out-of-range access
	TrapBadInstr  = 3
	TrapDivZero   = 4 // raised by millicode via BREAK, not by divide itself
	TrapProtected = 5 // store into the fenced runtime-table region
)

// CodeWindowBase maps the code space read-only into the data address
// space on every backend: a word load at CodeWindowBase+4i reads code word
// i (translated CASE tables are stored in the code stream and read
// through this window).
const CodeWindowBase = 0x01000000

// The episode undo covers the TNS data space (64K 16-bit words at byte 0)
// in pages of 1<<undoShift bytes.
const (
	undoShift = 8
	undoBytes = 1 << 17
	undoPages = undoBytes >> undoShift
)

// CPU is the simulator state shared by every backend: the architectural
// state of the 32-register TNS/R machine plus the host-facing stop,
// breakpoint and observation protocol. A backend's simulator embeds CPU
// and adds its private pipeline state (caches, delay slots, special
// registers); the mixed-mode driver and the debugger operate on CPU alone
// and stay target-independent.
//
// Code is held separately from data memory; PC values are word indexes
// into Code, and register-held code addresses are byte addresses, i.e. 4
// times the word index, on every backend.
type CPU struct {
	Code []uint32
	Mem  []byte
	Reg  [32]uint32
	PC   uint32 // word index of the next instruction to execute

	Cycles int64
	Instrs int64

	// Stopped is set when a BREAK executes or a trap is raised; Run
	// returns to the host, which may adjust state and call Run again.
	Stopped   bool
	BreakCode uint32 // valid when stopped by BREAK
	Trap      int    // valid when stopped by a trap
	TrapPC    uint32

	// Breakpoints stops execution before the instruction at a word index
	// executes (BPHit is set). ResumeAt clears the hit and skips the
	// check for the first instruction so execution can continue.
	Breakpoints map[uint32]bool
	BPHit       bool

	// OnSyscall handles SYSCALL inline; execution continues after it
	// returns. The 20-bit code selects the service; arguments are in
	// registers per the millicode convention.
	OnSyscall func(c *CPU, code uint32)

	// StoreTrace, when non-nil, observes every halfword store into the
	// TNS data region (byte address, halfword value); the fidelity tests
	// compare it with the interpreter's trace.
	StoreTrace func(addr uint32, value uint16)

	// OnInstr, when non-nil, is called with the PC of every counted
	// instruction (after Instrs is incremented, so hook calls equal the
	// Instrs total exactly). Nil costs one comparison per step.
	OnInstr func(pc uint32)

	// ProtectedLo/ProtectedHi, when Hi > Lo, fence [Lo, Hi) of data
	// memory against simulated stores: the host lays the packed
	// PMap/EMap runtime tables there, and damaged translated code must
	// not be able to rewrite the structures the recovery path depends
	// on. A store into the range raises TrapProtected. Host-side writes
	// (WriteWord and friends) bypass the fence.
	ProtectedLo uint32
	ProtectedHi uint32

	// Episode undo (see Checkpoint): a set bit marks a data-space page
	// not yet saved in the current episode; saved pages are listed in
	// undoAt with their checkpoint contents in undoData.
	undoClean [undoPages / 64]uint64
	undoAt    []uint32
	undoData  []byte
}

// Core returns the shared state itself; embedding CPU therefore satisfies
// the Sim interface's Core method for every backend simulator.
func (c *CPU) Core() *CPU { return c }

// Raise stops execution with a trap at the current PC.
func (c *CPU) Raise(code int) {
	c.Trap = code
	c.TrapPC = c.PC
	c.Stopped = true
}

// Load performs a simulated load of size (1, 2 or 4) bytes at addr,
// zero-extended. A word load at or above CodeWindowBase reads the code
// space. An unaligned or out-of-range access raises TrapAddress and
// reports false.
func (c *CPU) Load(addr, size uint32) (uint32, bool) {
	m := c.Mem
	switch {
	case size == 4 && addr >= CodeWindowBase:
		if idx := (addr - CodeWindowBase) >> 2; addr&3 == 0 && idx < uint32(len(c.Code)) {
			return c.Code[idx], true
		}
	case addr&(size-1) != 0 || uint64(addr)+uint64(size) > uint64(len(m)):
	case size == 1:
		return uint32(m[addr]), true
	case size == 2:
		return uint32(binary.BigEndian.Uint16(m[addr:])), true
	default:
		return binary.BigEndian.Uint32(m[addr:]), true
	}
	c.Raise(TrapAddress)
	return 0, false
}

// Store performs a simulated store of the low size (1, 2 or 4) bytes of v
// at addr. A store into the protected range raises TrapProtected; an
// unaligned or out-of-range one raises TrapAddress; both report false.
// Byte and halfword stores reach StoreTrace as the containing halfword.
func (c *CPU) Store(addr, v, size uint32) bool {
	if c.ProtectedHi > c.ProtectedLo && addr >= c.ProtectedLo && addr < c.ProtectedHi {
		c.Raise(TrapProtected)
		return false
	}
	m := c.Mem
	if addr&(size-1) != 0 || uint64(addr)+uint64(size) > uint64(len(m)) {
		c.Raise(TrapAddress)
		return false
	}
	if p := addr >> undoShift; p < undoPages && c.undoClean[p/64]&(1<<(p%64)) != 0 {
		c.savePage(p)
	}
	switch size {
	case 1:
		m[addr] = byte(v)
		if c.StoreTrace != nil {
			ha := addr &^ 1
			c.StoreTrace(ha, binary.BigEndian.Uint16(m[ha:]))
		}
	case 2:
		binary.BigEndian.PutUint16(m[addr:], uint16(v))
		if c.StoreTrace != nil {
			c.StoreTrace(addr, uint16(v))
		}
	default:
		binary.BigEndian.PutUint32(m[addr:], v)
	}
	return true
}

// Checkpoint starts an undo episode over the data space: from here on,
// the first simulated store into each page saves the page, so Restore can
// put the data space back as it is now. Host writes are not saved. Only
// whole pages are covered, which is all of the data space whenever data
// memory holds it.
func (c *CPU) Checkpoint() {
	c.DisarmUndo()
	pages := len(c.Mem) >> undoShift
	for i := range c.undoClean {
		switch n := pages - 64*i; {
		case n >= 64:
			c.undoClean[i] = ^uint64(0)
		case n > 0:
			c.undoClean[i] = 1<<n - 1
		}
	}
}

// DisarmUndo ends the episode without restoring: the saved pages are
// dropped and later stores save nothing.
func (c *CPU) DisarmUndo() {
	c.undoClean = [undoPages / 64]uint64{}
	c.undoAt = c.undoAt[:0]
	c.undoData = c.undoData[:0]
}

// Restore undoes every simulated store into the data space since
// Checkpoint and ends the episode.
func (c *CPU) Restore() {
	for i, p := range c.undoAt {
		copy(c.Mem[p<<undoShift:], c.undoData[i<<undoShift:(i+1)<<undoShift])
	}
	c.DisarmUndo()
}

func (c *CPU) savePage(p uint32) {
	c.undoClean[p/64] &^= 1 << (p % 64)
	c.undoAt = append(c.undoAt, p)
	c.undoData = append(c.undoData, c.Mem[p<<undoShift:(p+1)<<undoShift]...)
}

// ReadHalf reads a big-endian halfword from data memory (host convenience).
func (c *CPU) ReadHalf(addr uint32) uint16 {
	return uint16(c.Mem[addr])<<8 | uint16(c.Mem[addr+1])
}

// WriteHalf writes a big-endian halfword to data memory (host convenience).
func (c *CPU) WriteHalf(addr uint32, v uint16) {
	c.Mem[addr] = byte(v >> 8)
	c.Mem[addr+1] = byte(v)
}

// WriteWord writes a big-endian word to data memory (host convenience).
func (c *CPU) WriteWord(addr uint32, v uint32) {
	c.Mem[addr] = byte(v >> 24)
	c.Mem[addr+1] = byte(v >> 16)
	c.Mem[addr+2] = byte(v >> 8)
	c.Mem[addr+3] = byte(v)
}
