package xrun

import (
	"strings"
	"testing"

	"tnsr/internal/backend"
	"tnsr/internal/backend/mips"
	"tnsr/internal/backend/ob0"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/millicode"
	"tnsr/internal/obs"
	"tnsr/internal/risc"
	"tnsr/internal/tns"
	"tnsr/internal/tnsasm"
	"tnsr/internal/workloads"
)

// TestDegradedRunsInterpreted is the graceful-degradation contract: a
// codefile whose acceleration section fails structural verification must
// still run — fully interpreted, with correct output — and the degradation
// must be visible in the report in both text and JSON.
func TestDegradedRunsInterpreted(t *testing.T) {
	f := tnsasm.MustAssemble("mix", mixProg)
	if err := core.Accelerate(f, core.Options{Level: codefile.LevelDefault}); err != nil {
		t.Fatal(err)
	}
	// Structural damage with no checksum to catch it: one EMap entry too
	// few. Verify must reject it; New must degrade rather than fail.
	f.Accel.Entries = f.Accel.Entries[:len(f.Accel.Entries)-1]

	r, err := New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded {
		t.Fatal("runner did not degrade on a corrupt acceleration section")
	}
	if !strings.Contains(r.DegradedReason, "emap") {
		t.Errorf("DegradedReason = %q, want mention of the emap section", r.DegradedReason)
	}
	rec := obs.NewRecorder()
	r.Observe(rec)
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if r.Console() != "15" {
		t.Errorf("degraded console = %q, want 15", r.Console())
	}
	if r.Sim.Instrs != 0 {
		t.Errorf("degraded run executed %d RISC instructions, want 0", r.Sim.Instrs)
	}

	rep := r.Report(rec)
	if !rep.Degraded || rep.DegradedReason == "" {
		t.Error("report does not carry the degradation")
	}
	if err := obs.Validate(rep); err != nil {
		t.Errorf("degraded report fails validation: %v", err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := obs.ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Degraded || back.DegradedReason != rep.DegradedReason {
		t.Error("degradation lost in the JSON round trip")
	}
	var text strings.Builder
	rep.WriteText(&text, 0)
	if !strings.Contains(text.String(), "DEGRADED") {
		t.Error("text report does not surface the degradation")
	}
	// The refused initial entry is classified as a quarantine escape.
	found := false
	for _, e := range rep.Escapes {
		if e.Reason == "quarantined" && e.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no quarantined escape recorded for the degraded entry refusal")
	}
}

// selectiveAddup translates only the addup procedure, so every entry into
// RISC code goes through the interpreter's entry check and is attributed to
// addup — the precise setup the quarantine tests need.
func selectiveAddup(t *testing.T) *Runner {
	t.Helper()
	f := tnsasm.MustAssemble("mix", mixProg)
	opts := core.Options{
		Level:       codefile.LevelDefault,
		SelectProcs: map[string]bool{"addup": true},
	}
	if err := core.Accelerate(f, opts); err != nil {
		t.Fatal(err)
	}
	r, err := New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// patchEntry overwrites the first translated instruction of the named
// procedure's fragment (the register-exact point the runner enters through)
// with the given RISC words, simulating in-memory damage to translated code.
func patchEntry(t *testing.T, r *Runner, proc string, words ...uint32) {
	t.Helper()
	f := r.User
	i := f.ProcByName(proc)
	if i < 0 {
		t.Fatalf("no procedure %q", proc)
	}
	idx, _, ok := f.Accel.PMap.Lookup(f.Procs[i].Entry)
	if !ok {
		t.Fatalf("%q entry not mapped", proc)
	}
	copy(r.Sim.Code[idx:], words)
}

// TestQuarantineAfterTrapStorm: a fragment that breaks with an unexpected
// code on every entry is rolled back each time and, at the threshold, its
// procedure is demoted to interpreter-only — the run completes with correct
// output and the report names the quarantined procedure.
func TestQuarantineAfterTrapStorm(t *testing.T) {
	r := selectiveAddup(t)
	patchEntry(t, r, "addup", risc.EncBreak(7)) // no such break code exists
	rec := obs.NewRecorder()
	r.Observe(rec)
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if r.Console() != "15" {
		t.Errorf("console = %q, want 15", r.Console())
	}
	rep := r.Report(rec)
	if len(rep.Quarantined) != 1 {
		t.Fatalf("quarantined = %+v, want exactly addup", rep.Quarantined)
	}
	q := rep.Quarantined[0]
	if q.Name != "addup" || q.Space != "user" || q.Traps != int64(DefaultQuarantineThreshold) {
		t.Errorf("quarantined %+v, want addup/user with %d traps", q, DefaultQuarantineThreshold)
	}
	if len(r.RollbackLog) == 0 || !strings.Contains(r.RollbackLog[0], "addup") {
		t.Errorf("rollback log = %v, want entries attributed to addup", r.RollbackLog)
	}
	if err := obs.Validate(rep); err != nil {
		t.Errorf("report fails validation: %v", err)
	}
	var n int64
	for _, e := range rep.Escapes {
		if e.Reason == "quarantined" {
			n = e.Count
		}
	}
	if n < int64(DefaultQuarantineThreshold) {
		t.Errorf("quarantined escapes = %d, want >= %d", n, DefaultQuarantineThreshold)
	}
}

// TestProtectedStoreRollsBack: damaged translated code that stores into the
// fenced runtime-table region raises TrapProtected; the episode is rolled
// back and, with a threshold of 1, the procedure is quarantined at once.
func TestProtectedStoreRollsBack(t *testing.T) {
	r := selectiveAddup(t)
	r.QuarantineThreshold = 1
	patchEntry(t, r, "addup",
		risc.EncImm(risc.LUI, risc.RegV, 0, int32(millicode.PtrArea>>16)),
		risc.EncMem(risc.SW, 0, risc.RegV, 0))
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if r.Console() != "15" {
		t.Errorf("console = %q, want 15", r.Console())
	}
	if len(r.RollbackLog) != 1 ||
		!strings.Contains(r.RollbackLog[0], "risc trap 5") {
		t.Errorf("rollback log = %v, want one TrapProtected rollback", r.RollbackLog)
	}
}

// TestTrapAfterOutputHalts covers the one case rollback must refuse: the
// episode already produced console output, so re-running it would duplicate
// the output. The run halts with an address trap, classified EscapeTrap.
func TestTrapAfterOutputHalts(t *testing.T) {
	src := `
GLOBALS 4
MAIN main
PROC main
  LDI 7
  SVC 2
  LDI 0
  STOR G+0
  EXIT 0
ENDPROC
`
	f := tnsasm.MustAssemble("out", src)
	if err := core.Accelerate(f, core.Options{Level: codefile.LevelStmtDebug}); err != nil {
		t.Fatal(err)
	}
	r, err := New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Patch the words right after the translated SVC — so the episode
	// prints first, then stores into the protected region.
	syscallAt := -1
	for i := millicode.UserCodeBase; i < millicode.UserCodeBase+len(f.Accel.RISC); i++ {
		if risc.Decode(r.Sim.Code[i]).Op == risc.SYSCALL {
			syscallAt = i
			break
		}
	}
	if syscallAt < 0 {
		t.Fatal("no SYSCALL in the translated fragment")
	}
	copy(r.Sim.Code[syscallAt+1:], []uint32{
		risc.EncImm(risc.LUI, risc.RegV, 0, int32(millicode.PtrArea>>16)),
		risc.EncMem(risc.SW, 0, risc.RegV, 0),
	})
	rec := obs.NewRecorder()
	r.Observe(rec)
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !r.Halted || r.Trap != tns.TrapAddress {
		t.Fatalf("halted=%v trap=%d, want an address trap halt", r.Halted, r.Trap)
	}
	if r.Console() != "7" {
		t.Errorf("console = %q, want the pre-trap output preserved", r.Console())
	}
	if len(r.RollbackLog) != 0 {
		t.Errorf("rollback log = %v, want none (output made rollback unsound)", r.RollbackLog)
	}
	rep := r.Report(rec)
	var traps int64
	for _, e := range rep.Escapes {
		if e.Reason == "trap" {
			traps = e.Count
		}
	}
	if traps == 0 {
		t.Error("no trap escape recorded")
	}
}

// TestTrapEscapeClassified: a genuine TNS trap raised by translated code
// (divide by zero, reported through the BREAK protocol) is classified
// EscapeTrap in the observation record.
func TestTrapEscapeClassified(t *testing.T) {
	src := `
GLOBALS 4
MAIN main
PROC main
  LDI 1
  LDI 0
  DIV
  STOR G+0
  EXIT 0
ENDPROC
`
	f := tnsasm.MustAssemble("div", src)
	if err := core.Accelerate(f, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	r, err := New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	r.Observe(rec)
	if err := r.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if r.Trap != tns.TrapDivZero {
		t.Fatalf("trap = %d, want divide-by-zero", r.Trap)
	}
	rep := r.Report(rec)
	var traps int64
	for _, e := range rep.Escapes {
		if e.Reason == "trap" {
			traps += e.Count
		}
	}
	if traps != 1 {
		t.Errorf("trap escapes = %d, want 1", traps)
	}
	if err := obs.Validate(rep); err != nil {
		t.Errorf("report fails validation: %v", err)
	}
}

// TestBreakpointEscapeClassified: a breakpoint hit in RISC mode is
// classified EscapeBreakpoint.
func TestBreakpointEscapeClassified(t *testing.T) {
	r := accelerated(t, codefile.LevelDefault)
	rec := obs.NewRecorder()
	r.Observe(rec)
	f := r.User
	i := f.ProcByName("addup")
	idx, _, ok := f.Accel.PMap.Lookup(f.Procs[i].Entry)
	if !ok {
		t.Fatal("addup entry not mapped")
	}
	r.Sim.Breakpoints = map[uint32]bool{uint32(idx): true}
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !r.BPHit {
		t.Fatal("breakpoint did not hit")
	}
	rep := r.Report(rec)
	var bps int64
	for _, e := range rep.Escapes {
		if e.Reason == "breakpoint" {
			bps += e.Count
		}
	}
	if bps == 0 {
		t.Error("no breakpoint escape recorded")
	}
}

// TestRollbackRestoresDirtyMemory: a damaged fragment that writes the data
// space before breaking with an unknown code — the caller's argument on the
// stack, the loop counter global, and a byte on a page of its own — is
// rolled back on every entry until its procedure is quarantined. The
// abandoned stores must leave no trace: console, exit status and every
// word of data memory equal a pure-interpreter run, on both backends.
func TestRollbackRestoresDirtyMemory(t *testing.T) {
	for _, be := range []backend.Backend{mips.Default, ob0.Default} {
		t.Run(be.Name(), func(t *testing.T) {
			f := tnsasm.MustAssemble("mix", mixProg)
			opts := core.Options{
				Level:       codefile.LevelDefault,
				SelectProcs: map[string]bool{"addup": true},
				Backend:     be,
			}
			if err := core.Accelerate(f, opts); err != nil {
				t.Fatal(err)
			}
			r, err := New(f, nil, risc.Config{})
			if err != nil {
				t.Fatal(err)
			}
			const t0 = backend.RegT0
			ins := []backend.Inst{
				{Op: backend.ADDIU, Rt: t0, Imm: 0x41},
				{Op: backend.SH, Rs: backend.RegL, Rt: t0, Imm: -8}, // L-4: addup's first argument
				{Op: backend.SH, Rt: t0, Imm: 2},                    // G+1: main's loop counter
				{Op: backend.SB, Rt: t0, Imm: 0x601},                // a byte on data page 6
				{Op: backend.BREAK, Code: 7},                        // no such break code exists
			}
			for i := range ins {
				ins[i].Lbl, ins[i].JLbl, ins[i].LALbl = backend.NoLabel, backend.NoLabel, backend.NoLabel
			}
			enc, err := be.Encode(ins, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			patchEntry(t, r, "addup", enc.Code...)
			if err := r.Run(10_000_000); err != nil {
				t.Fatal(err)
			}

			m := interp.New(f, nil)
			if err := m.Run(10_000_000); err != nil {
				t.Fatal(err)
			}
			if len(r.RollbackLog) != DefaultQuarantineThreshold {
				t.Errorf("rollback log = %v, want %d rollbacks", r.RollbackLog, DefaultQuarantineThreshold)
			}
			if r.Console() != m.Console.String() || r.ExitStatus != m.ExitStatus ||
				r.Halted != m.Halted || r.Trap != m.Trap {
				t.Fatalf("runner console %q exit %d trap %d, interpreter console %q exit %d trap %d",
					r.Console(), r.ExitStatus, r.Trap, m.Console.String(), m.ExitStatus, m.Trap)
			}
			for i := 0; i < tns.DataWords; i++ {
				if m.Word(uint16(i)) != r.Int.Word(uint16(i)) {
					t.Fatalf("memory differs at word %d: interp=%04x runner=%04x",
						i, m.Word(uint16(i)), r.Int.Word(uint16(i)))
				}
			}
		})
	}
}

// TestDegradedReasonDeterministic: when both sections name unregistered
// backends, the reason lists user before lib on every build, so reports
// built from it are reproducible.
func TestDegradedReasonDeterministic(t *testing.T) {
	w := workloads.MustBuild("et1", 1)
	if err := core.Accelerate(w.User, core.Options{
		Level: codefile.LevelDefault, LibSummaries: w.LibSummaries,
	}); err != nil {
		t.Fatal(err)
	}
	if err := core.Accelerate(w.Lib, core.Options{
		Level:    codefile.LevelDefault,
		CodeBase: millicode.LibCodeBase, Space: 1,
	}); err != nil {
		t.Fatal(err)
	}
	w.User.Accel.BackendID, w.Lib.Accel.BackendID = 200, 201
	const want = "user: xrun: unknown backend ID 200; lib: xrun: unknown backend ID 201"
	for i := 0; i < 50; i++ {
		r, err := New(w.User, w.Lib, risc.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if r.DegradedReason != want {
			t.Fatalf("build %d: DegradedReason = %q, want %q", i, r.DegradedReason, want)
		}
	}
}
