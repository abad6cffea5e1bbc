package workloads

import (
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/risc"
	"tnsr/internal/talc"
	"tnsr/internal/tns"
	"tnsr/internal/xrun"
)

func runTal(t *testing.T, src string) *interp.Machine {
	t.Helper()
	f, err := talc.Compile("dbg", src)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(f, nil)
	if err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Trap != tns.TrapNone {
		t.Fatalf("trap %d at %d", m.Trap, m.TrapP)
	}
	return m
}

func TestDebugPushPop(t *testing.T) {
	m := runTal(t, `
INT stack[0:63];
INT sp;
INT out1; INT out2; INT out3;
PROC push(v); INT v;
BEGIN
  IF sp < 63 THEN
  BEGIN
    stack[sp] := v;
    sp := sp + 1;
  END;
END;
INT PROC pop;
BEGIN
  IF sp = 0 THEN RETURN -1;
  sp := sp - 1;
  RETURN stack[sp];
END;
PROC main MAIN;
BEGIN
  sp := 0;
  CALL push(11);
  CALL push(22);
  out1 := pop;
  out2 := pop;
  out3 := pop;
END;
`)
	t.Logf("out: %d %d %d sp=%d\n", int16(m.Word(64+1)), int16(m.Word(64+2)), int16(m.Word(64+3)), int16(m.Word(64)))
	if int16(m.Word(65)) != 22 || int16(m.Word(66)) != 11 || int16(m.Word(67)) != -1 {
		t.Errorf("push/pop broken: %d %d %d", int16(m.Word(65)), int16(m.Word(66)), int16(m.Word(67)))
	}
}

func TestDebugWhilePopLoop(t *testing.T) {
	m := runTal(t, `
INT stack[0:63];
INT sp;
INT count;
PROC push(v); INT v;
BEGIN
  stack[sp] := v;
  sp := sp + 1;
END;
INT PROC pop;
BEGIN
  IF sp = 0 THEN RETURN -1;
  sp := sp - 1;
  RETURN stack[sp];
END;
PROC main MAIN;
BEGIN
  INT a;
  sp := 0;
  count := 0;
  CALL push(5);
  a := pop;
  WHILE a >= 0 DO
  BEGIN
    count := count + 1;
    IF a > 0 THEN CALL push(a - 1);
    a := pop;
  END;
END;
`)
	if m.Word(65) != 6 {
		t.Errorf("count = %d, want 6", int16(m.Word(65)))
	}
}

func TestDebugModCall(t *testing.T) {
	m := runTal(t, `
INT out;
INT PROC size(f); INT f;
BEGIN
  IF f = 0 THEN RETURN 100;
  RETURN 20;
END;
PROC main MAIN;
BEGIN
  INT k;
  k := 12345;
  k := k \ size(0);
  out := k;
END;
`)
	if m.Word(0) != 45 {
		t.Errorf("mod = %d, want 45", int16(m.Word(0)))
	}
}

func TestDebugAxcelState(t *testing.T) {
	w := MustBuild("axcel", 1)
	m := interp.New(w.User, w.Lib)
	if err := m.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	// Globals: image@0 kindtab@384 leaders@768 bhash@864 nlead@960
	// stack@961 sp@1025 seed@1026 checksum@1027
	t.Logf("nlead=%d sp=%d seed=%d checksum=%d\n",
		int16(m.Word(960)), int16(m.Word(1025)), int16(m.Word(1026)), int16(m.Word(1027)))
	t.Logf("image[0..7]: ")
	for i := 0; i < 8; i++ {
		t.Logf("%d ", int16(m.Word(uint16(i))))
	}
	t.Logf("\nkindtab[0..7]: ")
	for i := 0; i < 8; i++ {
		t.Logf("%d ", int16(m.Word(uint16(384+i))))
	}
	t.Logf("\nleaders[0..7]: ")
	for i := 0; i < 8; i++ {
		t.Logf("%d ", int16(m.Word(uint16(768+i))))
	}
	t.Log("")
}

func TestDebugCaseArmWithIf(t *testing.T) {
	m := runTal(t, `
INT leaders[0:9];
INT nlead;
INT kinds[0:7] := [0, 3, 1, 3, 2, 5, 3, 4];
PROC main MAIN;
BEGIN
  INT i; INT kind;
  nlead := 0;
  FOR i := 0 TO 7 DO
  BEGIN
    kind := kinds[i];
    CASE kind OF
    BEGIN
      nlead := nlead;                      ! alu
      nlead := nlead;                      ! load
      nlead := nlead;                      ! store
      BEGIN                                ! branch
        IF i < 100 THEN
        BEGIN
          IF nlead < 10 THEN
          BEGIN
            leaders[nlead] := i;
            nlead := nlead + 1;
          END;
        END;
      END;
      OTHERWISE nlead := nlead;
    END;
  END;
END;
`)
	t.Logf("nlead=%d leaders=%d,%d,%d\n", int16(m.Word(10)), int16(m.Word(0)), int16(m.Word(1)), int16(m.Word(2)))
	if m.Word(10) != 3 {
		t.Errorf("nlead = %d, want 3", int16(m.Word(10)))
	}
}

func TestDebugET1State(t *testing.T) {
	w := MustBuild("et1", 3)
	m := interp.New(w.User, w.Lib)
	if err := m.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	// Lib: accts@0 tellers@800 branches@960 locks@1000 journal@1125
	// jhead@1381 txseq@1382 workbuf@1383; user: seed@2048 checksum@2049 aborted@2050
	t.Logf("console=%q txseq=%d jhead=%d seed=%d aborted=%d\n",
		m.Console.String(), int16(m.Word(1382)), int16(m.Word(1381)),
		int16(m.Word(2048)), int16(m.Word(2050)))
	t.Logf("accts[0..9]: ")
	for i := 0; i < 10; i++ {
		t.Logf("%d ", int16(m.Word(uint16(i))))
	}
	t.Logf("\nlocks[0..9]: ")
	for i := 0; i < 10; i++ {
		t.Logf("%d ", int16(m.Word(uint16(1000+i))))
	}
	t.Logf("\njournal[0..11]: ")
	for i := 0; i < 12; i++ {
		t.Logf("%d ", int16(m.Word(uint16(1125+i))))
	}
	t.Log("")
}

func TestDebugFallbacks(t *testing.T) {
	for _, name := range []string{"dhry16", "et1"} {
		w := MustBuild(name, 2)
		opts := core.Options{Level: codefile.LevelDefault, LibSummaries: w.LibSummaries}
		if err := core.Accelerate(w.User, opts); err != nil {
			t.Fatal(err)
		}
		if w.Lib != nil {
			if err := core.Accelerate(w.Lib, core.Options{Level: codefile.LevelDefault, CodeBase: 0x80000, Space: 1}); err != nil {
				t.Fatal(err)
			}
		}
		r, err := xrun.New(w.User, w.Lib, risc.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(100_000_000); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: interludes=%d frac=%.1f%%\n", name, r.Interludes, 100*r.InterpFraction())
		for k, n := range r.FallbackAt {
			space := "user"
			cf := w.User
			if k>>24 != 0 {
				space = "lib"
				cf = w.Lib
			}
			addr := uint16(k)
			pi := cf.ProcContaining(addr)
			pname := "?"
			if pi >= 0 {
				pname = cf.Procs[pi].Name
			}
			t.Logf("  fallback %s@%d (%s) x%d: %s\n", space, addr, pname, n,
				tns.Disassemble(addr, cf.Code[addr]))
		}
	}
}

func TestDebugReentry(t *testing.T) {
	w := MustBuild("et1", 2)
	core.Accelerate(w.User, core.Options{Level: codefile.LevelDefault, LibSummaries: w.LibSummaries})
	core.Accelerate(w.Lib, core.Options{Level: codefile.LevelDefault, CodeBase: 0x80000, Space: 1})
	r, _ := xrun.New(w.User, w.Lib, risc.Config{})
	// Manually step the interpreter like runInterp does, logging transfers.
	m := r.Int
	for i := 0; i < 4000 && !m.Halted; i++ {
		kind := m.Step()
		if kind != interp.TransferNone {
			acc := w.User.Accel
			space := "user"
			if m.Space == interp.SpaceLib {
				acc, space = w.Lib.Accel, "lib"
			}
			idx, re, ok := acc.PMap.Lookup(m.P)
			t.Logf("transfer kind=%d to %s@%d: mapped=%v regexact=%v idx=%d\n",
				kind, space, m.P, ok, re, idx)
			if i > 200 {
				break
			}
		}
	}
}
