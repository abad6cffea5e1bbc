package xrun

import (
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/risc"
	"tnsr/internal/tnsasm"
	"tnsr/internal/workloads"
)

const mixProg = `
GLOBALS 16
DATA 4: 0x6162 0x6364
MAIN main
PROC addup RESULT 1 ARGS 2
  LOAD L-4
  LOAD L-3
  ADD
  EXIT 2
ENDPROC
PROC main
  LDI 0
  STOR G+0
  LDI 5
  STOR G+1
loop:
  LOAD G+0
  ADDS 1
  STOR S-0
  LOAD G+1
  ADDS 1
  STOR S-0
  PCAL addup
  STOR G+0
  LDI 8
  LDI 12
  LDI 4
  MOVB
  LOAD G+1
  ADDI -1
  STOR G+1
  LOAD G+1
  BNZ loop
  LOAD G+0
  SVC 2
  EXIT 0
ENDPROC
`

func accelerated(t *testing.T, lvl codefile.AccelLevel) *Runner {
	t.Helper()
	f := tnsasm.MustAssemble("mix", mixProg)
	if err := core.Accelerate(f, core.Options{Level: lvl}); err != nil {
		t.Fatal(err)
	}
	r, err := New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestStoreSequenceFidelity verifies the paper's exact-store claim: the
// translated code "does exactly the same sequence of stores into memory"
// as the CISC code — checked store by store, in order, across modes.
func TestStoreSequenceFidelity(t *testing.T) {
	type st struct {
		addr uint16
		val  uint16
	}
	ref := tnsasm.MustAssemble("mix", mixProg)
	m := interp.New(ref, nil)
	var want []st
	m.StoreTrace = func(a, v uint16) { want = append(want, st{a, v}) }
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}

	for _, lvl := range []codefile.AccelLevel{
		codefile.LevelStmtDebug, codefile.LevelDefault, codefile.LevelFast,
	} {
		r := accelerated(t, lvl)
		var got []st
		r.Sim.StoreTrace = func(a uint32, v uint16) {
			got = append(got, st{uint16(a / 2), v})
		}
		r.Int.StoreTrace = func(a, v uint16) {
			got = append(got, st{a, v})
		}
		// Both traces observe only stores after construction (the initial
		// marker is built inside New in both cases), so the sequences are
		// directly comparable.
		if err := r.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d stores, interpreter did %d", lvl, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: store %d = (%d,%04x), want (%d,%04x)",
					lvl, i, got[i].addr, got[i].val, want[i].addr, want[i].val)
			}
		}
	}
}

func TestModeAccountingAndConsole(t *testing.T) {
	r := accelerated(t, codefile.LevelDefault)
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !r.Halted || r.Trap != 0 {
		t.Fatalf("halted=%v trap=%d", r.Halted, r.Trap)
	}
	if r.Console() != "15" {
		t.Errorf("console = %q, want 15", r.Console())
	}
	total, riscC, interC := r.Cycles()
	if total != riscC+interC {
		t.Error("cycle accounting does not add up")
	}
	if riscC == 0 {
		t.Error("no RISC cycles recorded")
	}
	if r.InterpFraction() != interC/total {
		t.Error("InterpFraction inconsistent")
	}
}

// TestSelectiveAcceleration exercises the paper's "future possibility of
// selectively accelerating just the most time-consuming subroutines":
// only "addup" is translated; main stays interpreted, and control bounces
// between modes at every call.
func TestSelectiveAcceleration(t *testing.T) {
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
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if r.Console() != "15" {
		t.Errorf("console = %q", r.Console())
	}
	if r.Switches == 0 {
		t.Error("expected mode switches between interpreted main and translated addup")
	}
	frac := r.InterpFraction()
	if frac == 0 || frac == 1 {
		t.Errorf("expected mixed execution, got fraction %.2f", frac)
	}
}

func TestTrapPropagation(t *testing.T) {
	src := `
GLOBALS 4
MAIN main
PROC main
  LDI 3
  STOR G+0
  LDI 1
  LDI 0
  DIV
  STOR G+1
  EXIT 0
ENDPROC
`
	f := tnsasm.MustAssemble("trap", src)
	if err := core.Accelerate(f, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	r, err := New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if r.Trap != 2 { // tns.TrapDivZero
		t.Errorf("trap = %d, want divide-by-zero", r.Trap)
	}
	// Stores before the trap landed.
	if r.Int.Word(0) != 3 {
		t.Errorf("store before trap lost: %d", r.Int.Word(0))
	}
}

func TestUnacceleratedRunsInterpreted(t *testing.T) {
	f := tnsasm.MustAssemble("mix", mixProg)
	r, err := New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if r.Console() != "15" {
		t.Errorf("console = %q", r.Console())
	}
	if r.Sim.Instrs != 0 {
		t.Error("unaccelerated program should never enter RISC mode")
	}
	if frac := r.InterpFraction(); frac != 1 {
		t.Errorf("interp fraction = %.2f, want 1", frac)
	}
}

func TestBreakpointRoundTrip(t *testing.T) {
	r := accelerated(t, codefile.LevelDefault)
	// Break at the PCAL return point inside the loop: the first mapped
	// register-exact address that is not a procedure entry.
	f := r.User
	entries := map[uint16]bool{}
	for _, p := range f.Procs {
		entries[p.Entry] = true
	}
	var bpAddr uint16
	var bpIdx int
	found := false
	for a := 0; a < len(f.Code); a++ {
		idx, re, ok := f.Accel.PMap.Lookup(uint16(a))
		if ok && re && !entries[uint16(a)] {
			bpAddr, bpIdx, found = uint16(a), idx, true
			break
		}
	}
	if !found {
		t.Fatal("no register-exact point to break on")
	}
	r.Sim.Breakpoints = map[uint32]bool{uint32(bpIdx): true}
	r.TNSBreaks = map[uint32]bool{uint32(bpAddr): true}
	hits := 0
	for i := 0; i < 10 && !r.Halted; i++ {
		if err := r.Continue(1_000_000); err != nil {
			t.Fatal(err)
		}
		if !r.BPHit {
			break
		}
		hits++
		if r.BPAddr != bpAddr {
			t.Fatalf("hit at %d, want %d", r.BPAddr, bpAddr)
		}
	}
	if hits != 5 {
		t.Errorf("breakpoint hit %d times, want 5 (loop iterations)", hits)
	}
	if !r.Halted {
		if err := r.Continue(1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	if r.Console() != "15" {
		t.Errorf("console after breakpoints = %q", r.Console())
	}
}

// BenchmarkModeSwitch times one interpreter -> RISC -> interpreter round
// trip (two mode switches, no instructions executed) on ET1 with only the
// user code translated, the call-heavy partly translated shape whose runs
// switch thousands of times.
func BenchmarkModeSwitch(b *testing.B) {
	w := workloads.MustBuild("et1", 1)
	if err := core.Accelerate(w.User, core.Options{
		Level: codefile.LevelDefault, LibSummaries: w.LibSummaries,
	}); err != nil {
		b.Fatal(err)
	}
	r, err := New(w.User, w.Lib, risc.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	p := r.Int.P
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.enterRISCIfMapped() {
			b.Fatal("main entry is not register-exact")
		}
		r.loadIntFromSim(p)
		r.inRISC = false
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/switch")
}
