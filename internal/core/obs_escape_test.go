package core_test

import (
	"bytes"
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/obs"
	"tnsr/internal/risc"
	"tnsr/internal/tnsasm"
	"tnsr/internal/xrun"
)

// The standard workloads run fully translated, so the escape classifier is
// only exercised when something goes wrong on purpose. These tests force
// interludes of known kinds and assert the recorder names them correctly.

// runObserved accelerates f with opts, runs it observed, and returns the
// recorder and runner.
func runObserved(t *testing.T, src string, opts core.Options) (*obs.Recorder, *xrun.Runner) {
	t.Helper()
	f := tnsasm.MustAssemble("esc", src)
	if err := core.Accelerate(f, opts); err != nil {
		t.Fatal(err)
	}
	r, err := xrun.New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	r.Observe(rec)
	if err := r.Run(100000); err != nil {
		t.Fatal(err)
	}
	return rec, r
}

// A wrong XCAL result-size guess trips the run-time RP confirmation, whose
// fallback stub the translator tagged rp-conflict.
func TestEscapeReasonRPConflict(t *testing.T) {
	rec, r := runObserved(t, hintProg, core.DefaultOptions())
	if r.Interludes == 0 {
		t.Fatal("expected interludes from the wrong guess")
	}
	if rec.Escapes[obs.EscapeRPConflict] == 0 {
		t.Errorf("no rp-conflict escapes recorded: %v", rec.Escapes)
	}
	if rec.Escapes[obs.EscapeUnknown] != 0 {
		t.Errorf("unknown escapes recorded: %v", rec.Escapes)
	}
	if rec.InterpEntries != int64(r.Interludes) {
		t.Errorf("entries %d != interludes %d", rec.InterpEntries, r.Interludes)
	}
}

// Selective acceleration: a PCAL to an untranslated procedure falls back,
// tagged untranslated at translation time.
func TestEscapeReasonUntranslated(t *testing.T) {
	src := `
GLOBALS 8
MAIN main
PROC slowpath ARGS 0
  LDI 3
  STOR G+0
  EXIT 0
ENDPROC
PROC main
  PCAL slowpath
  LDI 1
  STOR G+1
  EXIT 0
ENDPROC
`
	opts := core.DefaultOptions()
	opts.SelectProcs = map[string]bool{"main": true}
	rec, r := runObserved(t, src, opts)
	if r.Int.Word(0) != 3 || r.Int.Word(1) != 1 {
		t.Fatalf("wrong results: %v", words(r.Int, 2))
	}
	if r.Interludes == 0 {
		t.Fatal("expected an interlude at the untranslated callee")
	}
	if rec.Escapes[obs.EscapeUntranslated] == 0 {
		t.Errorf("no untranslated escapes recorded: %v", rec.Escapes)
	}
	if rec.Escapes[obs.EscapeUnknown] != 0 {
		t.Errorf("unknown escapes recorded: %v", rec.Escapes)
	}
	// The hottest-site table must name the call site in user space.
	rep := r.Report(rec)
	if len(rep.Sites) == 0 || rep.Sites[0].Space != "user" {
		t.Errorf("escape sites: %+v", rep.Sites)
	}
	if err := obs.Validate(rep); err != nil {
		t.Errorf("validate: %v", err)
	}
}

// FallbackWhy must survive a serialize/parse round trip, so reports built
// from reloaded codefiles still classify escapes (codefile version 4).
func TestFallbackWhyRoundTrip(t *testing.T) {
	f := tnsasm.MustAssemble("esc", hintProg)
	if err := core.Accelerate(f, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if len(f.Accel.FallbackWhy) == 0 {
		t.Fatal("translator recorded no fallback reasons")
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := codefile.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Accel.FallbackWhy) != len(f.Accel.FallbackWhy) {
		t.Fatalf("round trip lost reasons: %d != %d",
			len(back.Accel.FallbackWhy), len(f.Accel.FallbackWhy))
	}
	for addr, w := range f.Accel.FallbackWhy {
		if back.Accel.FallbackWhy[addr] != w {
			t.Errorf("addr %d: reason %d != %d", addr, back.Accel.FallbackWhy[addr], w)
		}
	}
}
