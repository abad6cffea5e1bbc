// Package xrun executes accelerated codefiles the way a TNS/R machine does:
// translated RISC code at full speed, with automatic switches into the TNS
// interpreter at puzzle points and automatic recovery back into RISC code at
// the next call or return that finds a register-exact point in the PMap. It
// builds the runtime image (millicode, translated code, packed PMaps, EMaps),
// mediates the BREAK/SYSCALL protocol, and accounts cycles separately per
// execution mode so "time spent in interpreter mode" is measurable, as in
// the paper.
package xrun

import (
	"fmt"
	"sort"

	"tnsr/internal/backend"
	"tnsr/internal/backend/mips"
	_ "tnsr/internal/backend/ob0" // register the second target for ByID/ByName
	"tnsr/internal/codefile"
	"tnsr/internal/interp"
	"tnsr/internal/machine"
	"tnsr/internal/millicode"
	"tnsr/internal/obs"
	"tnsr/internal/pgo"
	"tnsr/internal/risc"
	"tnsr/internal/tns"
)

// SwitchPenalty is the RISC cycle cost charged per execution-mode switch
// (state packing and dispatch into or out of the interpreter loop).
const SwitchPenalty = 40

// DefaultQuarantineThreshold is the number of rolled-back trap storms one
// procedure's translation is allowed before the procedure is demoted to
// interpreter-only execution for the rest of the run.
const DefaultQuarantineThreshold = 3

// Runner executes a user codefile (optionally with a system library) in
// mixed mode.
type Runner struct {
	User *codefile.File
	Lib  *codefile.File

	// Sim is the shared simulator state (registers, memory, code image,
	// stop/breakpoint protocol) of whichever backend the accelerated
	// sections were encoded for; sim is the backend simulator driving it.
	Sim *backend.CPU
	Int *interp.Machine

	// Mode accounting.
	InterludeProf interp.Profile // instructions interpreted in fallback mode
	Interludes    int            // interpreter episodes
	Switches      int            // total mode switches (both directions)
	// FallbackAt counts interpreter entries by (space<<16 | TNS address),
	// for diagnosing puzzle hot spots.
	FallbackAt map[uint32]int

	Halted     bool
	ExitStatus uint16
	Trap       int
	TrapP      uint16

	// Breakpoint support for the debugger: TNSBreaks keys are
	// space<<16 | TNS address; a hit stops Run with BPHit set.
	TNSBreaks map[uint32]bool
	BPHit     bool
	BPSpace   interp.Space
	BPAddr    uint16

	// Obs, when attached via Observe, receives every mode transition with
	// a typed escape reason, plus PMap probe results. Nil costs one
	// comparison at each transition site (the per-instruction hooks live
	// in interp.Machine and risc.Sim).
	Obs *obs.Recorder

	// PGO, when attached via Capture, receives the dynamic RP at every
	// fired run-time guard (failed return-point checks and refused
	// re-entries) — the raw material of profile-guided retranslation. Nil
	// costs one comparison per transition site.
	PGO *pgo.Capture

	// Degradation state. Degraded is set when an acceleration section
	// failed codefile verification at New time and the affected space
	// runs fully interpreted; DegradedReason carries the typed detail.
	Degraded       bool
	DegradedReason string

	// QuarantineThreshold is the number of unexpected-trap rollbacks one
	// procedure's translation may cause before the procedure is demoted
	// to interpreter-only (<= 0 means DefaultQuarantineThreshold).
	QuarantineThreshold int

	// RollbackLog records recent rollback diagnostics (capped).
	RollbackLog []string

	accel    [2]*codefile.AccelSection // verified sections by space; nil = unusable
	degraded [2]bool                   // space's section failed Verify

	quarTraps   map[uint32]int64 // quarKey -> rolled-back traps
	quarantined map[uint32]bool  // quarKey -> demoted to interpreter-only

	// Rollback anchor: the interpreter's registers at the last RISC entry
	// are still live in r.Int (a RISC episode writes only the shared data
	// memory, whose pages r.Sim saves for undo), so abandoning an episode
	// only needs these bookkeeping values.
	entrySpace   interp.Space
	entryAddr    uint16
	entryProc    int // proc index containing entryAddr, -1 if unknown
	entryConsole int // console length at entry: output since = irreversible

	inRISC  bool
	skipBP  bool
	cfg     risc.Config
	be      backend.Backend
	sim     backend.Sim
	noEnter obs.EscapeReason // why the last enterRISCIfMapped refused
}

// quarKey packs a quarantine map key: space in the top bit, proc index
// below (-1 saturates, so unattributed entries still share one counter).
func quarKey(space interp.Space, proc int) uint32 {
	return uint32(space&1)<<31 | (uint32(proc) & 0x7FFFFFFF)
}

// New builds the runtime image. Either or both codefiles may be
// accelerated; unaccelerated files simply run interpreted. An acceleration
// section that fails structural verification is dropped rather than
// failing the load — the CISC image is intact and authoritative, so the
// affected space runs fully interpreted (Degraded is set and every refused
// re-entry is classified obs.EscapeQuarantined).
func New(user, lib *codefile.File, cfg risc.Config) (*Runner, error) {
	r := &Runner{User: user, Lib: lib, cfg: cfg,
		QuarantineThreshold: DefaultQuarantineThreshold}

	if user.Accel != nil {
		if err := user.Accel.Verify(user, millicode.UserCodeBase); err != nil {
			r.setDegraded("user", err)
		} else {
			r.accel[0] = user.Accel
		}
	}
	if lib != nil && lib.Accel != nil {
		if err := lib.Accel.Verify(lib, millicode.LibCodeBase); err != nil {
			r.setDegraded("lib", err)
		} else {
			r.accel[1] = lib.Accel
		}
	}

	// Resolve the target backend from the sections' identity tags. A
	// section for an unregistered target is refused exactly like one
	// that fails structural verification; when user and library name
	// different targets the library is dropped (one simulator drives
	// both spaces). With no accelerated sections the MIPS default
	// stands, timing-configured by cfg.
	for i, space := range spaceNames {
		a := r.accel[i]
		if a == nil {
			continue
		}
		if _, ok := backend.ByID(a.BackendID); !ok {
			r.setDegraded(space, fmt.Errorf("xrun: unknown backend ID %d", a.BackendID))
			r.accel[i] = nil
		}
	}
	if r.accel[0] != nil && r.accel[1] != nil &&
		r.accel[0].BackendID != r.accel[1].BackendID {
		r.setDegraded("lib", fmt.Errorf("xrun: backend mismatch: user ID %d, lib ID %d",
			r.accel[0].BackendID, r.accel[1].BackendID))
		r.accel[1] = nil
	}
	r.be = mips.New(cfg)
	for i := 0; i < 2; i++ {
		if r.accel[i] != nil && r.accel[i].BackendID != mips.BackendID {
			r.be, _ = backend.ByID(r.accel[i].BackendID)
			break
		}
	}

	milli, _ := r.be.Millicode()
	codeLen := millicode.UserCodeBase
	if r.accel[0] != nil {
		codeLen = millicode.UserCodeBase + len(r.accel[0].RISC)
	}
	if r.accel[1] != nil {
		codeLen = millicode.LibCodeBase + len(r.accel[1].RISC)
	}
	code := make([]uint32, codeLen)
	copy(code, milli)
	if r.accel[0] != nil {
		copy(code[millicode.UserCodeBase:], r.accel[0].RISC)
	}
	if r.accel[1] != nil {
		copy(code[millicode.LibCodeBase:], r.accel[1].RISC)
	}

	r.sim = r.be.NewSim(code, millicode.MemBytes)
	r.Sim = r.sim.Core()
	// The interpreter runs over the data-space prefix of simulator memory:
	// one image, so a mode switch moves registers only.
	r.Int = interp.NewOn(dataSpace(r.Sim), user, lib)
	r.Sim.OnSyscall = r.onSyscall

	// Lay out the runtime tables.
	next := uint32(millicode.TableArea)
	place := func(b []byte) uint32 {
		addr := next
		copy(r.Sim.Mem[addr:], b)
		next = (addr + uint32(len(b)) + 3) &^ 3
		return addr
	}
	writePtr := func(at, v uint32) { r.Sim.WriteWord(at, v) }

	if r.accel[0] != nil {
		pm := r.accel[0].PMap.Pack()
		pmAddr := place(pm)
		writePtr(millicode.PtrUserPMapBase, pmAddr+4)
		writePtr(millicode.PtrUserPMapOff, pmAddr+4+4*uint32(beU32(pm, 0)))
		writePtr(millicode.PtrUserEMap, place(packEMap(r.accel[0].Entries)))
	}
	if r.accel[1] != nil {
		pm := r.accel[1].PMap.Pack()
		pmAddr := place(pm)
		writePtr(millicode.PtrLibPMapBase, pmAddr+4)
		writePtr(millicode.PtrLibPMapOff, pmAddr+4+4*uint32(beU32(pm, 0)))
		writePtr(millicode.PtrLibEMap, place(packEMap(r.accel[1].Entries)))
	}

	// Fence the pointer words and the packed tables against simulated
	// stores: damaged translated code must not be able to rewrite the
	// structures the recovery path depends on.
	r.Sim.ProtectedLo = millicode.PtrArea
	r.Sim.ProtectedHi = next
	return r, nil
}

// dataSpace is the TNS data space within simulator memory.
func dataSpace(s *backend.CPU) *interp.Memory { return (*interp.Memory)(s.Mem) }

// Backend returns the target the runner resolved from the acceleration
// sections' identity tags (the MIPS default when nothing is accelerated).
func (r *Runner) Backend() backend.Backend { return r.be }

// BackendSim returns the backend simulator driving r.Sim. Callers wanting
// target-specific pipeline detail (stall and cache counters, special
// registers) type-assert its concrete type; everything target-independent
// is on r.Sim itself.
func (r *Runner) BackendSim() backend.Sim { return r.sim }

// setDegraded records a failed section verification; the space runs
// interpreted for the whole run.
func (r *Runner) setDegraded(space string, err error) {
	idx := 0
	if space == "lib" {
		idx = 1
	}
	r.degraded[idx] = true
	r.Degraded = true
	if r.DegradedReason != "" {
		r.DegradedReason += "; "
	}
	r.DegradedReason += space + ": " + err.Error()
}

func beU32(b []byte, off int) uint32 {
	return uint32(b[off])<<24 | uint32(b[off+1])<<16 |
		uint32(b[off+2])<<8 | uint32(b[off+3])
}

// packEMap serializes the PEP -> RISC entry map as big-endian byte
// addresses (0 for untranslated procedures).
func packEMap(entries []int32) []byte {
	out := make([]byte, 4*len(entries))
	for i, e := range entries {
		var v uint32
		if e >= 0 {
			v = uint32(e) << 2
		}
		out[i*4] = byte(v >> 24)
		out[i*4+1] = byte(v >> 16)
		out[i*4+2] = byte(v >> 8)
		out[i*4+3] = byte(v)
	}
	return out
}

// accelOf returns the verified acceleration section for a code space, or
// nil (no section, or one that failed verification at New time).
func (r *Runner) accelOf(space interp.Space) *codefile.AccelSection {
	return r.accel[space&1]
}

// enterRISCIfMapped checks whether the interpreter's current position is a
// register-exact point and, if so, switches to RISC execution. When it
// refuses, r.noEnter records why (read by the initial-interlude telemetry).
func (r *Runner) enterRISCIfMapped() bool {
	acc := r.accelOf(r.Int.Space)
	if acc == nil {
		if r.degraded[r.Int.Space&1] {
			r.noEnter = obs.EscapeQuarantined
		} else {
			r.noEnter = obs.EscapeUntranslated
		}
		return false
	}
	// Quarantined procedures stay interpreted for the rest of the run.
	proc := -1
	if f := r.Int.CodeFile(r.Int.Space); f != nil {
		proc = f.ProcContaining(r.Int.P)
	}
	if r.quarantined[quarKey(r.Int.Space, proc)] {
		r.noEnter = obs.EscapeQuarantined
		return false
	}
	idx, regExact, ok := acc.PMap.Lookup(r.Int.P)
	if r.Obs != nil {
		r.Obs.PMapLookup(ok && regExact)
	}
	if !ok || !regExact {
		r.noEnter = obs.EscapeUnmapped
		return false
	}
	// The translated code at this point assumes a specific RP; a wrong
	// result-size guess upstream can leave the dynamic RP different, in
	// which case execution must stay interpreted.
	if int(r.Int.P) < len(acc.ExpectedRP) {
		if exp := acc.ExpectedRP[r.Int.P]; exp != 0xFF && exp != r.Int.RP {
			r.noEnter = obs.EscapeRPConflict
			if r.PGO != nil {
				r.PGO.EscapeRP(uint8(r.Int.Space), r.Int.P, r.Int.RP)
			}
			return false
		}
	}
	// Anchor the rollback point: the interpreter keeps the exact
	// architectural state of this instant for the whole RISC episode.
	r.entrySpace = r.Int.Space
	r.entryAddr = r.Int.P
	r.entryProc = proc
	r.entryConsole = r.Int.Console.Len()
	r.Sim.Checkpoint()

	r.loadSimFromInt()
	r.sim.ResumeAt(uint32(idx))
	r.Sim.Cycles += SwitchPenalty
	r.Switches++
	r.inRISC = true
	if r.Obs != nil {
		r.Obs.EnterRISC()
	}
	return true
}

// loadSimFromInt transfers the architectural registers interpreter ->
// simulator; data memory is shared.
func (r *Runner) loadSimFromInt() {
	m := r.Int
	s := r.Sim
	for i := 0; i < 8; i++ {
		s.Reg[risc.RegR0+i] = uint32(int32(int16(m.R[i])))
	}
	s.Reg[risc.RegDB] = 0
	s.Reg[risc.RegL] = uint32(m.L) * 2
	s.Reg[risc.RegS] = uint32(m.S) * 2
	s.Reg[risc.RegCC] = uint32(int32(m.CC))
	s.Reg[risc.RegK] = 0
	s.Reg[risc.RegV] = 0
	s.Reg[risc.RegENV] = uint32(packENV(m))
}

func packENV(m *interp.Machine) uint16 {
	return interp.PackENV(m.RP, m.T, m.Space)
}

// loadIntFromSim transfers the architectural registers simulator ->
// interpreter, resuming interpretation at TNS address p in the space given
// by $env.
func (r *Runner) loadIntFromSim(p uint16) {
	m := r.Int
	s := r.Sim
	for i := 0; i < 8; i++ {
		m.R[i] = uint16(s.Reg[risc.RegR0+i])
	}
	env := uint16(s.Reg[risc.RegENV])
	m.RP = uint8(env & 7)
	m.T = env&0x80 != 0
	m.Space = interp.UnpackENVSpace(env)
	m.L = uint16(s.Reg[risc.RegL] / 2)
	m.S = uint16(s.Reg[risc.RegS] / 2)
	cc := int32(s.Reg[risc.RegCC])
	switch {
	case cc < 0:
		m.CC = -1
	case cc > 0:
		m.CC = 1
	default:
		m.CC = 0
	}
	m.K, m.V = false, false
	m.P = p
}

// Run executes until the program halts or the instruction budget (summed
// over both modes) is exhausted.
func (r *Runner) Run(maxInstrs int64) error {
	// Start in RISC mode if the main entry is register-exact.
	if !r.inRISC {
		if !r.enterRISCIfMapped() {
			r.Interludes++ // the program begins interpreted
			if r.Obs != nil {
				r.Obs.Escape(uint8(r.Int.Space), r.Int.P, r.noEnter, true)
			}
		}
	}
	for !r.Halted && !r.BPHit {
		spent := r.Sim.Instrs + r.InterludeProf.Instrs
		if maxInstrs > 0 && spent >= maxInstrs {
			return fmt.Errorf("xrun: exceeded %d instructions", maxInstrs)
		}
		if r.inRISC {
			if err := r.runRISC(maxInstrs); err != nil {
				return err
			}
		} else {
			r.runInterp(maxInstrs)
		}
	}
	return nil
}

// Continue resumes after a breakpoint hit.
func (r *Runner) Continue(maxInstrs int64) error {
	if r.BPHit {
		r.BPHit = false
		if r.inRISC {
			r.sim.ResumeAt(r.Sim.PC)
		} else {
			r.skipBP = true
		}
	}
	return r.Run(maxInstrs)
}

// InRISCMode reports the current execution mode.
func (r *Runner) InRISCMode() bool { return r.inRISC }

// ArmBreak arms a breakpoint at a TNS address in the given code space
// (0 = user, 1 = lib) for both execution modes: the interpreter-side check
// always, and the RISC-side breakpoint when the address is a mapped point
// of a loaded translation. It reports whether the RISC side was armed;
// unmapped addresses still break under interpretation.
func (r *Runner) ArmBreak(space uint8, addr uint16) bool {
	if r.TNSBreaks == nil {
		r.TNSBreaks = map[uint32]bool{}
	}
	r.TNSBreaks[uint32(space&1)<<16|uint32(addr)] = true
	f := r.User
	if space&1 == 1 {
		f = r.Lib
	}
	if f == nil || f.Accel == nil {
		return false
	}
	idx, _, ok := f.Accel.PMap.Lookup(addr)
	if !ok {
		return false
	}
	if r.Sim.Breakpoints == nil {
		r.Sim.Breakpoints = map[uint32]bool{}
	}
	r.Sim.Breakpoints[uint32(idx)] = true
	return true
}

func (r *Runner) runRISC(maxInstrs int64) error {
	budget := int64(0)
	if maxInstrs > 0 {
		budget = maxInstrs - r.Sim.Instrs - r.InterludeProf.Instrs + 16
	}
	if err := r.sim.Run(budget); err != nil {
		return err
	}
	s := r.Sim
	switch {
	case s.BPHit:
		r.BPHit = true
		r.BPSpace = interp.UnpackENVSpace(uint16(s.Reg[risc.RegENV]))
		if acc := r.accelOf(r.BPSpace); acc != nil {
			if a, ok := acc.PMap.Inverse(int(s.PC)); ok {
				r.BPAddr = a
			}
		}
		if r.Obs != nil {
			r.Obs.Escape(uint8(r.BPSpace), r.BPAddr, obs.EscapeBreakpoint, false)
		}
		return nil
	case s.Trap == risc.TrapOverflow:
		// A hardware-trapping add fired: translated code only uses them
		// when overflow traps are statically enabled, so this is the TNS
		// overflow trap. The PMap inverse gives the nearest TNS address.
		r.Halted = true
		r.Trap = tns.TrapOverflow
		space := interp.UnpackENVSpace(uint16(s.Reg[risc.RegENV]))
		if acc := r.accelOf(space); acc != nil {
			if a, ok := acc.PMap.Inverse(int(s.TrapPC)); ok {
				r.TrapP = a
			}
		}
		if r.Obs != nil {
			r.Obs.Escape(uint8(space), r.TrapP, obs.EscapeTrap, false)
		}
	case s.Trap != risc.TrapNone:
		// Raw simulator trap: correct translated code stays inside the
		// data space, so this is damage — corrupt RISC words, a fenced
		// store into the runtime tables — not TNS semantics. Roll the
		// episode back to its interpreter entry state and re-run it
		// interpreted; a procedure that storms repeatedly is
		// quarantined. Only when rollback is impossible (console output
		// already escaped) does the run halt.
		if r.rollback(fmt.Sprintf("risc trap %d at pc %d", s.Trap, s.TrapPC)) {
			return nil
		}
		r.Halted = true
		r.Trap = tns.TrapAddress
		r.TrapP = 0
		if r.Obs != nil {
			r.Obs.Escape(uint8(r.Int.Space), 0, obs.EscapeTrap, false)
		}
	case s.BreakCode == millicode.BreakHalt:
		r.Halted = true
		r.ExitStatus = r.Int.ExitStatus
	case s.BreakCode == millicode.BreakFallback:
		p := uint16(s.Reg[risc.RegMT])
		if r.FallbackAt == nil {
			r.FallbackAt = map[uint32]int{}
		}
		spaceBit := uint32(s.Reg[risc.RegENV]) & 0x100
		r.FallbackAt[spaceBit<<8|uint32(p)]++
		if r.Obs != nil {
			space := interp.UnpackENVSpace(uint16(s.Reg[risc.RegENV]))
			r.Obs.Escape(uint8(space), p, r.fallbackReason(space, p), true)
		}
		if r.PGO != nil {
			// The dynamic RP that contradicted the static assumption is in
			// $env, which translated code keeps synchronized at every
			// canonicalized point (including fallback stubs).
			space := interp.UnpackENVSpace(uint16(s.Reg[risc.RegENV]))
			r.PGO.EscapeRP(uint8(space), p, uint8(s.Reg[risc.RegENV]&7))
		}
		r.loadIntFromSim(p)
		r.Sim.Cycles += SwitchPenalty
		r.Switches++
		r.Interludes++
		r.inRISC = false
	case s.BreakCode >= millicode.BreakTrapBase:
		r.Halted = true
		r.Trap = int(s.BreakCode) - millicode.BreakTrapBase
		r.TrapP = uint16(s.Reg[risc.RegMT])
		if r.Obs != nil {
			r.Obs.Escape(uint8(r.Int.Space), r.TrapP, obs.EscapeTrap, false)
		}
	default:
		if r.rollback(fmt.Sprintf("unexpected break %d at pc %d", s.BreakCode, s.PC)) {
			return nil
		}
		return fmt.Errorf("xrun: unexpected break %d at %d", s.BreakCode, s.PC)
	}
	return nil
}

// rollback abandons the current RISC episode after an unexpected trap or
// break. It is sound because the episode's entry state is recoverable:
// the interpreter's registers are not written during RISC execution, and
// the simulator saved every data-space page the episode stored into
// (Checkpoint at entry), so restoring those pages puts the shared data
// memory back as it was. The one irreversible side effect is console
// output (onSyscall writes it directly), so an episode that already
// printed cannot be re-run and rollback reports false.
//
// Every rollback counts against the procedure the episode entered through
// (the entry procedure, not the trapping PC: RISC-internal direct calls
// bypass entry checks, and quarantining the entry path is what guarantees
// the storm cannot recur). At QuarantineThreshold the procedure is demoted
// to interpreter-only for the rest of the run, which bounds the total
// number of rollbacks and guarantees forward progress.
func (r *Runner) rollback(detail string) bool {
	if r.Int.Console.Len() != r.entryConsole {
		return false
	}
	if r.quarTraps == nil {
		r.quarTraps = map[uint32]int64{}
		r.quarantined = map[uint32]bool{}
	}
	key := quarKey(r.entrySpace, r.entryProc)
	r.quarTraps[key]++
	thr := r.QuarantineThreshold
	if thr <= 0 {
		thr = DefaultQuarantineThreshold
	}
	if r.quarTraps[key] >= int64(thr) {
		r.quarantined[key] = true
	}
	if len(r.RollbackLog) < 32 {
		r.RollbackLog = append(r.RollbackLog, fmt.Sprintf("%s/%s: %s",
			spaceName(r.entrySpace), r.procName(r.entrySpace, r.entryProc), detail))
	}
	if r.Obs != nil {
		r.Obs.Escape(uint8(r.entrySpace), r.entryAddr, obs.EscapeQuarantined, true)
	}
	// Discard the simulator episode; the interpreter resumes at the
	// entry point with its registers untouched and the episode's stores
	// undone.
	r.Sim.Restore()
	r.Sim.Cycles += SwitchPenalty
	r.Switches++
	r.Interludes++
	r.inRISC = false
	return true
}

var spaceNames = [2]string{"user", "lib"}

func spaceName(space interp.Space) string { return spaceNames[space&1] }

// procName resolves a procedure index in a space to its name.
func (r *Runner) procName(space interp.Space, proc int) string {
	f := r.Int.CodeFile(space)
	if f == nil || proc < 0 || proc >= len(f.Procs) {
		return "(unknown)"
	}
	return f.Procs[proc].Name
}

// fallbackReason classifies a BreakFallback escape at TNS address p. The
// translator recorded a static reason for every fallback it emitted
// (FallbackWhy); the remaining fallbacks come from millicode EXIT landing
// on a return point absent from the packed PMap, which only drops
// non-register-exact points — hence Unmapped. Unknown should never occur
// (the differential tests assert this).
func (r *Runner) fallbackReason(space interp.Space, p uint16) obs.EscapeReason {
	acc := r.accelOf(space)
	if acc == nil {
		return obs.EscapeUntranslated
	}
	if w, ok := acc.FallbackWhy[p]; ok {
		return obs.EscapeReason(w)
	}
	if _, regExact, ok := acc.PMap.Lookup(p); !ok || !regExact {
		return obs.EscapeUnmapped
	}
	return obs.EscapeUnknown
}

func (r *Runner) runInterp(maxInstrs int64) {
	m := r.Int
	before := m.Prof
	for !m.Halted {
		if maxInstrs > 0 &&
			r.Sim.Instrs+r.InterludeProf.Instrs+(m.Prof.Instrs-before.Instrs) >= maxInstrs {
			break
		}
		if r.TNSBreaks != nil && !r.skipBP &&
			r.TNSBreaks[uint32(m.Space)<<16|uint32(m.P)] {
			r.BPHit = true
			r.BPSpace = m.Space
			r.BPAddr = m.P
			delta := m.Prof.Sub(&before)
			r.InterludeProf.Add(&delta)
			return
		}
		r.skipBP = false
		kind := m.Step()
		if kind == interp.TransferCall || kind == interp.TransferExit {
			// The paper's recovery rule: return to accelerated code at
			// the next call or return that finds a register-exact point.
			if !m.Halted {
				delta := m.Prof.Sub(&before)
				r.InterludeProf.Add(&delta)
				before = m.Prof
				if r.enterRISCIfMapped() {
					return
				}
			}
		}
	}
	delta := m.Prof.Sub(&before)
	r.InterludeProf.Add(&delta)
	if m.Halted {
		r.Halted = true
		r.ExitStatus = m.ExitStatus
		r.Trap = m.Trap
		r.TrapP = m.TrapP
	}
}

func (r *Runner) onSyscall(s *backend.CPU, code uint32) {
	m := r.Int
	switch uint8(code) {
	case tns.SvcHalt:
		m.ExitStatus = uint16(s.Reg[risc.RegMT])
		r.Halted = true
		s.Stopped = true
		s.BreakCode = millicode.BreakHalt
	case tns.SvcPutchar:
		m.Console.WriteByte(byte(s.Reg[risc.RegMT]))
	case tns.SvcPutnum:
		fmt.Fprintf(&m.Console, "%d", int16(s.Reg[risc.RegMT]))
	case tns.SvcPuts:
		ba := s.Reg[risc.RegMT] & 0xFFFF
		n := s.Reg[risc.RegRA] & 0xFFFF
		for i := uint32(0); i < n; i++ {
			m.Console.WriteByte(s.Mem[ba+i])
		}
	}
	// Output makes the episode irreversible (rollback refuses it), so
	// its later stores need no saving.
	if m.Console.Len() != r.entryConsole {
		s.DisarmUndo()
	}
}

// AdoptInterpreter replaces the runner's interpreter with an existing
// machine mid-execution (dynamic translation hands a running interpreted
// program over to freshly translated code). The machine's memory becomes
// authoritative: it is copied once into the runner's data space, which
// the machine runs over from then on.
func (r *Runner) AdoptInterpreter(m *interp.Machine) {
	if r.Obs != nil {
		m.Obs = r.Obs
	}
	if r.PGO != nil {
		m.PGO = r.PGO
	}
	r.Int = m
	r.Sim.OnSyscall = r.onSyscall
	m.Rebind(dataSpace(r.Sim))
	r.inRISC = false
}

// Observe attaches rec to every layer of the runner: the interpreter and
// simulator per-instruction hooks, the mode-transition sites, and the
// proc-attribution tables for both code spaces. Call it once, before Run.
func (r *Runner) Observe(rec *obs.Recorder) {
	// Attribution must describe the image actually built: a section that
	// failed verification was never loaded, so present its file accel-less.
	user, lib := r.User, r.Lib
	if r.degraded[0] {
		u := *user
		u.Accel = nil
		user = &u
	}
	if lib != nil && r.degraded[1] {
		l := *lib
		l.Accel = nil
		lib = &l
	}
	rec.AttachRuntime(user, lib, len(r.Sim.Code),
		millicode.UserCodeBase, millicode.LibCodeBase)
	r.Obs = rec
	r.Int.Obs = rec
	r.Sim.OnInstr = rec.RISCStep
}

// Capture attaches a PGO capture to the runner and its interpreter, and
// binds it to the run's codefiles for attribution and fingerprint stamping.
// Call it once, before Run; compose freely with Observe.
func (r *Runner) Capture(c *pgo.Capture) {
	c.AttachFiles(r.User, r.Lib)
	r.PGO = c
	r.Int.PGO = c
}

// Report builds the full execution report: the recorder's counters plus the
// runner's cycle pricing ("% time interpreted") and mode-switch total.
func (r *Runner) Report(rec *obs.Recorder) *obs.Report {
	rep := rec.Report()
	tot, rc, ic := r.Cycles()
	rep.Modes.TotalCycles = tot
	rep.Modes.RISCCycles = rc
	rep.Modes.InterpCycles = ic
	rep.Modes.InterpFraction = r.InterpFraction()
	rep.Modes.Switches = int64(r.Switches)
	if r.User.Accel != nil {
		rep.Level = r.User.Accel.Level.String()
	}
	rep.Degraded = r.Degraded
	rep.DegradedReason = r.DegradedReason
	for key, demoted := range r.quarantined {
		if !demoted {
			continue
		}
		space := interp.Space(key >> 31)
		proc := int(key & 0x7FFFFFFF)
		if proc == 0x7FFFFFFF {
			proc = -1
		}
		rep.Quarantined = append(rep.Quarantined, obs.QuarantinedProc{
			Name:  r.procName(space, proc),
			Space: spaceName(space),
			Traps: r.quarTraps[key],
		})
	}
	sort.Slice(rep.Quarantined, func(i, j int) bool {
		if rep.Quarantined[i].Space != rep.Quarantined[j].Space {
			return rep.Quarantined[i].Space < rep.Quarantined[j].Space
		}
		return rep.Quarantined[i].Name < rep.Quarantined[j].Name
	})
	return rep
}

// Console returns the program's console output.
func (r *Runner) Console() string { return r.Int.Console.String() }

// Cycles prices the complete run on the Cyclone/R: simulated RISC cycles
// plus interpreter interludes priced under the software-interpreter model.
func (r *Runner) Cycles() (total, riscCycles, interlude float64) {
	ic := machine.CycloneRInterp.Cycles(&r.InterludeProf.Counts, r.InterludeProf.LongUnits)
	rc := float64(r.Sim.Cycles)
	return rc + ic, rc, ic
}

// InterpFraction reports the fraction of time spent in interpreter mode.
func (r *Runner) InterpFraction() float64 {
	tot, _, ic := r.Cycles()
	if tot == 0 {
		return 0
	}
	return ic / tot
}
