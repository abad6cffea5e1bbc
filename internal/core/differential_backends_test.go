package core_test

import (
	"fmt"
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
	"tnsr/internal/talc"
	"tnsr/internal/tns"
	"tnsr/internal/workloads"
	"tnsr/internal/xrun"
)

// The three-way differential oracle behind the retargetable-backend claim:
// every shipped program runs through the pure interpreter and through the
// full translate-and-run pipeline once per registered backend, at every
// translation level. Each accelerated run must reproduce the interpreter's
// halt state, trap code, exit status, console output and final memory
// image, and must never escape to the interpreter for an unclassified
// reason. Since both backends are held to the interpreter's behaviour,
// they are transitively held to each other — a target assumption baked
// into the shared analysis core (delay-slot scheduling, HI/LO shape,
// one-word-per-instruction layout) would show up here as an ob0
// divergence while MIPS stays green.

// diffBackends is the oracle for one program and one backend.
func diffBackends(t *testing.T, lvl codefile.AccelLevel, be backend.Backend,
	build func() (*codefile.File, *codefile.File, map[uint16]int8)) {
	t.Helper()

	user, lib, summaries := build()
	m := interp.New(user, lib)
	m.Run(30_000_000)

	auser, alib, _ := build()
	opts := core.Options{Level: lvl, Workers: 4, Backend: be, LibSummaries: summaries}
	if alib != nil {
		libOpts := core.Options{
			Level: lvl, Workers: 4, Backend: be,
			CodeBase: millicode.LibCodeBase, Space: 1,
		}
		if err := core.Accelerate(alib, libOpts); err != nil {
			t.Fatalf("accelerate lib: %v", err)
		}
	}
	if err := core.Accelerate(auser, opts); err != nil {
		t.Fatalf("accelerate: %v", err)
	}
	r, err := xrun.New(auser, alib, risc.Config{MulLatency: 12, DivLatency: 35})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Backend().Name(); got != be.Name() {
		t.Fatalf("runner resolved backend %q, want %q", got, be.Name())
	}
	if r.Degraded {
		t.Fatalf("runner degraded: %s", r.DegradedReason)
	}
	rec := obs.NewRecorder()
	r.Observe(rec)
	if err := r.Run(200_000_000); err != nil {
		t.Fatalf("run: %v (interludes=%d)", err, r.Interludes)
	}

	if m.Halted != r.Halted {
		t.Fatalf("halted: interp=%v accel=%v", m.Halted, r.Halted)
	}
	if m.Trap != r.Trap {
		t.Fatalf("trap: interp=%d accel=%d", m.Trap, r.Trap)
	}
	if m.Trap == 0 && m.ExitStatus != r.ExitStatus {
		t.Errorf("exit status: interp=%d accel=%d", m.ExitStatus, r.ExitStatus)
	}
	if got, want := r.Console(), m.Console.String(); got != want {
		t.Errorf("console: accel=%q interp=%q", got, want)
	}
	if n := rec.Escapes[obs.EscapeUnknown]; n != 0 {
		t.Errorf("%d escapes with Unknown reason (histogram %v)", n, rec.Escapes)
	}
	// The comparison is only meaningful if translated code actually ran:
	// a silent degrade to full interpretation would match the interpreter
	// vacuously.
	if r.Sim.Instrs == 0 {
		t.Fatalf("no RISC instructions executed: backend %s never engaged", be.Name())
	}
	if m.Trap != 0 {
		return // memory at trap time may legitimately differ midway
	}
	for i := 0; i < tns.DataWords; i++ {
		if m.Word(uint16(i)) != r.Int.Word(uint16(i)) {
			t.Fatalf("memory differs at word %d: interp=%04x accel=%04x",
				i, m.Word(uint16(i)), r.Int.Word(uint16(i)))
		}
	}
}

// oracleBackends are the targets the differential oracle sweeps. Both
// registry instances, by name, so the test also proves registration.
func oracleBackends(t *testing.T) []backend.Backend {
	t.Helper()
	var out []backend.Backend
	for _, name := range []string{"mips", "ob0"} {
		be, ok := backend.ByName(name)
		if !ok {
			t.Fatalf("backend %q not registered", name)
		}
		out = append(out, be)
	}
	return out
}

func TestDifferentialBackends(t *testing.T) {
	for _, be := range oracleBackends(t) {
		for _, name := range workloads.Names {
			for _, lvl := range levels {
				be, name, lvl := be, name, lvl
				t.Run(fmt.Sprintf("%s/%s/%v", be.Name(), name, lvl), func(t *testing.T) {
					t.Parallel()
					diffBackends(t, lvl, be, func() (*codefile.File, *codefile.File, map[uint16]int8) {
						w, err := workloads.Build(name, 2)
						if err != nil {
							t.Fatal(err)
						}
						return w.User, w.Lib, w.LibSummaries
					})
				})
			}
		}
		for name, src := range workloads.ExamplePrograms {
			for _, lvl := range levels {
				be, name, src, lvl := be, name, src, lvl
				t.Run(fmt.Sprintf("%s/%s/%v", be.Name(), name, lvl), func(t *testing.T) {
					t.Parallel()
					diffBackends(t, lvl, be, func() (*codefile.File, *codefile.File, map[uint16]int8) {
						f, err := talc.Compile(name, src)
						if err != nil {
							t.Fatal(err)
						}
						return f, nil, nil
					})
				})
			}
		}
	}
}

// TestBackendIdentityBytes pins the registry identity bytes: they are
// stored in codefiles, so they may never change or collide.
func TestBackendIdentityBytes(t *testing.T) {
	if mips.BackendID != 0 || mips.Default.ID() != 0 {
		t.Errorf("mips identity byte must be 0")
	}
	if ob0.BackendID != 1 || ob0.Default.ID() != 1 {
		t.Errorf("ob0 identity byte must be 1")
	}
	if got := backend.Names(); len(got) < 2 {
		t.Errorf("registry names = %v, want at least mips and ob0", got)
	}
}
