package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/millicode"
	"tnsr/internal/obs"
	"tnsr/internal/pgo"
	"tnsr/internal/risc"
	"tnsr/internal/tnsasm"
	"tnsr/internal/workloads"
	"tnsr/internal/xrun"
)

// TestProfileCorrectsGuessedResultSize closes the PGO loop on hintProg by
// capture rather than by hand: run the unprofiled translation observed, feed
// the captured profile into a retranslation, and the wrong XCAL result-size
// guess is corrected — no interludes — while the run-time check stays in
// place (the profile is advisory, not trusted).
func TestProfileCorrectsGuessedResultSize(t *testing.T) {
	f1 := tnsasm.MustAssemble("h", hintProg)
	if err := core.Accelerate(f1, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	r1, _ := xrun.New(f1, nil, risc.Config{})
	c := pgo.NewCapture()
	r1.Capture(c)
	if err := r1.Run(100000); err != nil {
		t.Fatal(err)
	}
	if r1.Interludes == 0 {
		t.Fatal("unprofiled run should escape at the wrong guess")
	}
	prof := c.Profile()
	if err := pgo.Validate(prof); err != nil {
		t.Fatal(err)
	}

	f2 := tnsasm.MustAssemble("h", hintProg)
	opts := core.DefaultOptions()
	opts.Profile = prof
	if err := core.Accelerate(f2, opts); err != nil {
		t.Fatal(err)
	}
	if f2.Accel.Stats.RPChecks == 0 {
		t.Error("profiled translation must keep the run-time RP check")
	}
	r2, _ := xrun.New(f2, nil, risc.Config{})
	if err := r2.Run(100000); err != nil {
		t.Fatal(err)
	}
	if r2.Interludes != 0 {
		t.Errorf("profiled translation still fell back %d times", r2.Interludes)
	}
	if r2.Int.Word(0) != 2 || r2.Int.Word(1) != 4 {
		t.Errorf("profiled results: %v", words(r2.Int, 2))
	}
}

// devirtProfile hand-builds a profile for hintProg carrying both the true
// result size and the observed callee of the XCAL, so the translator emits
// an inline devirtualized fast path ahead of the millicode dispatch.
func devirtProfile(f *codefile.File, withTargets bool) *pgo.Profile {
	xa := xcalAddr(f)
	cs := pgo.CallSite{Addr: xa, Results: []pgo.ResultCount{{Words: 2, Count: 5}}}
	if withTargets {
		// Proc index 0 is "two", the only callee LDPL 0 can reach.
		cs.Targets = []pgo.TargetCount{{Space: "user", PEP: 0, Count: 5}}
	}
	return &pgo.Profile{
		Schema: pgo.Schema,
		Runs:   1,
		Spaces: []pgo.SpaceProfile{{
			Space:       "user",
			File:        f.Name,
			Fingerprint: fmt.Sprintf("%016x", f.Fingerprint()),
			CallSites:   []pgo.CallSite{cs},
		}},
	}
}

// TestProfileDevirtualizesXCAL: with an observed-target entry the XCAL gets
// an inline compare-and-jump; the run must produce identical results with no
// interludes, and the emitted code visibly grows by the devirt sequence.
func TestProfileDevirtualizesXCAL(t *testing.T) {
	base := tnsasm.MustAssemble("h", hintProg)
	optsNo := core.DefaultOptions()
	optsNo.Profile = devirtProfile(base, false)
	if err := core.Accelerate(base, optsNo); err != nil {
		t.Fatal(err)
	}

	f := tnsasm.MustAssemble("h", hintProg)
	opts := core.DefaultOptions()
	opts.Profile = devirtProfile(f, true)
	if err := core.Accelerate(f, opts); err != nil {
		t.Fatal(err)
	}
	if f.Accel.Stats.RISCInstrs <= base.Accel.Stats.RISCInstrs {
		t.Errorf("devirt emitted no code: %d vs %d RISC instrs",
			f.Accel.Stats.RISCInstrs, base.Accel.Stats.RISCInstrs)
	}

	r, _ := xrun.New(f, nil, risc.Config{})
	if err := r.Run(100000); err != nil {
		t.Fatal(err)
	}
	if r.Interludes != 0 {
		t.Errorf("devirtualized run fell back %d times", r.Interludes)
	}
	if r.Int.Word(0) != 2 || r.Int.Word(1) != 4 {
		t.Errorf("devirtualized results: %v", words(r.Int, 2))
	}
}

// TestProfileStaleFingerprintIgnored: a profile captured against a different
// build must degrade to "no profile" — the translation is byte-identical to
// an unprofiled one.
func TestProfileStaleFingerprintIgnored(t *testing.T) {
	plain := tnsasm.MustAssemble("h", hintProg)
	if err := core.Accelerate(plain, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}

	f := tnsasm.MustAssemble("h", hintProg)
	prof := devirtProfile(f, true)
	prof.Spaces[0].Fingerprint = "00000000000000ff" // some other build
	opts := core.DefaultOptions()
	opts.Profile = prof
	if err := core.Accelerate(f, opts); err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if _, err := plain.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("stale profile changed the translation")
	}
}

// conflictProg loops across a join whose two static predecessors disagree on
// RP (the dead path leaves an extra word), so the join is an RP conflict the
// static analysis cannot resolve; dynamically only one RP ever arrives.
const conflictProg = `
GLOBALS 8
MAIN main
PROC main
  LDI 20
  STOR G+0
loop:
  LOAD G+0
  BZ fin
  LDI 1
  BZ dead
  LDI 7
  BUN join
dead:
  LDI 3
  LDI 4
join:
  STOR G+1
  LOAD G+0
  ADDI -1
  STOR G+0
  BUN loop
fin:
  EXIT 0
ENDPROC
`

// TestProfileConfirmsConflictJoin: pass 1 escapes at the conflicting join
// every iteration; the captured RP lets pass 2 map the join with a run-time
// guard, eliminating the escapes while both passes agree observationally
// (RunAdaptive verifies that itself).
func TestProfileConfirmsConflictJoin(t *testing.T) {
	build := func() *codefile.File { return tnsasm.MustAssemble("conflict", conflictProg) }
	res, err := xrun.RunAdaptive(build(), nil, nil, codefile.LevelDefault, 0, 1_000_000, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c1 := res.FirstObs.Escapes[obs.EscapeRPConflict]
	c2 := res.SecondObs.Escapes[obs.EscapeRPConflict]
	t.Logf("conflict-join escapes: pass 1 %d, pass 2 %d", c1, c2)
	if c1 == 0 {
		t.Fatal("pass 1 should escape at the conflicting join")
	}
	if c2 != 0 {
		t.Errorf("pass 2 still escaped %d times; the observed RP should map the join", c2)
	}
}

// profiledDiffSweep is the profile-fed arm of the differential sweep: the
// pure interpreter is the reference, and the two RunAdaptive passes (the
// second translated with the pass-1 profile) must match it exactly.
func profiledDiffSweep(t *testing.T, lvl codefile.AccelLevel,
	build func() (*codefile.File, *codefile.File, map[uint16]int8)) {
	t.Helper()

	user, lib, _ := build()
	m := interp.New(user, lib)
	m.Run(30_000_000)

	auser, alib, summaries := build()
	res, err := xrun.RunAdaptive(auser, alib, summaries, lvl, 4, 200_000_000,
		risc.Config{MulLatency: 12, DivLatency: 35})
	if err != nil {
		t.Fatal(err)
	}
	if m.Halted != res.Halted {
		t.Fatalf("halted: interp=%v profiled=%v", m.Halted, res.Halted)
	}
	if m.Trap != res.Trap {
		t.Fatalf("trap: interp=%d profiled=%d", m.Trap, res.Trap)
	}
	if m.Trap == 0 && m.ExitStatus != res.ExitStatus {
		t.Errorf("exit status: interp=%d profiled=%d", m.ExitStatus, res.ExitStatus)
	}
	if got, want := res.Console, m.Console.String(); got != want {
		t.Errorf("console: profiled=%q interp=%q", got, want)
	}
	if err := pgo.Validate(res.Profile); err != nil {
		t.Errorf("captured profile invalid: %v", err)
	}
}

// TestDifferentialProfiledWorkloads re-runs the differential sweep with the
// PGO loop engaged at every translation level: profile-fed translation must
// be observationally identical to both the unprofiled translation (checked
// inside RunAdaptive) and the pure interpreter (checked here).
func TestDifferentialProfiledWorkloads(t *testing.T) {
	for _, name := range workloads.Names {
		for _, lvl := range levels {
			name, lvl := name, lvl
			t.Run(fmt.Sprintf("%s/%v", name, lvl), func(t *testing.T) {
				t.Parallel()
				profiledDiffSweep(t, lvl, func() (*codefile.File, *codefile.File, map[uint16]int8) {
					w, err := workloads.Build(name, 2)
					if err != nil {
						t.Fatal(err)
					}
					return w.User, w.Lib, w.LibSummaries
				})
			})
		}
	}
}

// TestParallelDeterminismProfiled: translation under a profile is as
// deterministic as without one — Workers=4 must produce byte-identical
// output to the serial pipeline when both are fed the same profile.
func TestParallelDeterminismProfiled(t *testing.T) {
	w, err := workloads.Build("dhry16", 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := xrun.RunAdaptive(w.User, w.Lib, w.LibSummaries,
		codefile.LevelDefault, 0, 200_000_000, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prof := res.Profile

	build := func(workers int) []byte {
		wl, err := workloads.Build("dhry16", 2)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		opts := core.Options{
			Level: codefile.LevelDefault, Workers: workers,
			LibSummaries: wl.LibSummaries, Profile: prof,
		}
		if err := core.Accelerate(wl.User, opts); err != nil {
			t.Fatal(err)
		}
		if _, err := wl.User.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if wl.Lib != nil {
			libOpts := core.Options{
				Level: codefile.LevelDefault, Workers: workers,
				CodeBase: millicode.LibCodeBase, Space: 1, Profile: prof,
			}
			if err := core.Accelerate(wl.Lib, libOpts); err != nil {
				t.Fatal(err)
			}
			if _, err := wl.Lib.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}

	ref := build(1)
	for run := 0; run < 3; run++ {
		if got := build(4); !bytes.Equal(got, ref) {
			t.Fatalf("run %d: profiled parallel translation differs from serial", run)
		}
	}
}
