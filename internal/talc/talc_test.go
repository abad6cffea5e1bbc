package talc

import (
	"strings"
	"testing"

	"tnsr/internal/interp"
	"tnsr/internal/tns"
)

// run compiles and interprets a program, returning the machine.
func run(t *testing.T, src string) *interp.Machine {
	t.Helper()
	f, err := Compile("test", src)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(f, nil)
	if err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Trap != tns.TrapNone {
		t.Fatalf("trap %d at P=%d (space %d)", m.Trap, m.TrapP, m.Space)
	}
	return m
}

// global g is at a known offset when declared first.
func TestAssignAndArithmetic(t *testing.T) {
	m := run(t, `
INT a; INT b; INT c; INT d; INT e; INT f;
PROC main MAIN;
BEGIN
  a := 2 + 3 * 4;
  b := (2 + 3) * 4;
  c := -a;
  d := 100 / 7;
  e := 100 \ 7;
  f := (12 LOR 3) XOR (12 LAND 10);
END;
`)
	want := []int16{14, 20, -14, 14, 2, 7}
	for i, w := range want {
		if got := int16(m.Word(uint16(i))); got != w {
			t.Errorf("global %d = %d, want %d", i, got, w)
		}
	}
}

func TestIfElseWhile(t *testing.T) {
	m := run(t, `
INT sum; INT i; INT big;
PROC main MAIN;
BEGIN
  sum := 0;
  i := 1;
  WHILE i <= 100 DO
  BEGIN
    sum := sum + i;
    i := i + 1;
  END;
  IF sum = 5050 THEN big := 1 ELSE big := 0;
  IF sum > 10000 OR sum < 0 THEN big := -1;
  IF sum > 0 AND NOT (sum < 100) THEN big := big + 10;
END;
`)
	if m.Word(0) != 5050 {
		t.Errorf("sum = %d", m.Word(0))
	}
	if int16(m.Word(2)) != 11 {
		t.Errorf("big = %d, want 11", int16(m.Word(2)))
	}
}

func TestForLoopsAndArrays(t *testing.T) {
	m := run(t, `
INT arr[0:9];
INT total;
INT rev;
PROC main MAIN;
BEGIN
  INT i;
  FOR i := 0 TO 9 DO arr[i] := i * i;
  total := 0;
  FOR i := 0 TO 9 DO total := total + arr[i];
  rev := 0;
  FOR i := 9 DOWNTO 0 DO rev := rev * 2 + (arr[i] \ 2);
END;
`)
	if m.Word(10) != 285 {
		t.Errorf("total = %d, want 285", m.Word(10))
	}
}

func TestProcCallsAndRecursion(t *testing.T) {
	m := run(t, `
INT result;
INT PROC fib(n); INT n;
BEGIN
  IF n < 2 THEN RETURN n;
  RETURN fib(n - 1) + fib(n - 2);
END;
PROC main MAIN;
BEGIN
  result := fib(12);
END;
`)
	if m.Word(0) != 144 {
		t.Errorf("fib(12) = %d, want 144", m.Word(0))
	}
}

func TestReferenceParams(t *testing.T) {
	m := run(t, `
INT x; INT y;
PROC swap(a, b); INT .a; INT .b;
BEGIN
  INT t;
  t := a;
  a := b;
  b := t;
END;
PROC main MAIN;
BEGIN
  x := 11;
  y := 22;
  CALL swap(@x, @y);
END;
`)
	if m.Word(0) != 22 || m.Word(1) != 11 {
		t.Errorf("swap: x=%d y=%d", m.Word(0), m.Word(1))
	}
}

func TestPointersAndIndexing(t *testing.T) {
	m := run(t, `
INT data[0:4] := [10, 20, 30, 40, 50];
INT out1; INT out2;
INT .p;
PROC main MAIN;
BEGIN
  @p := @data;
  out1 := p[2];
  p[3] := 99;
  @p := @data[4];
  out2 := p;
END;
`)
	if m.Word(5) != 30 {
		t.Errorf("p[2] = %d", m.Word(5))
	}
	if m.Word(3) != 99 {
		t.Errorf("p[3] store: %d", m.Word(3))
	}
	if m.Word(6) != 50 {
		t.Errorf("out2 = %d", m.Word(6))
	}
}

func TestInt32Arithmetic(t *testing.T) {
	m := run(t, `
INT(32) a; INT(32) b; INT(32) c; INT narrow;
PROC main MAIN;
BEGIN
  a := 100000D + 23456D;
  b := a / 1000D;
  c := $DBL(300) * $DBL(300);
  narrow := $INT(b);
END;
`)
	get32 := func(i int) int32 {
		return int32(uint32(m.Word(uint16(i)))<<16 | uint32(m.Word(uint16(i+1))))
	}
	if get32(0) != 123456 {
		t.Errorf("a = %d", get32(0))
	}
	if get32(2) != 123 {
		t.Errorf("b = %d", get32(2))
	}
	if get32(4) != 90000 {
		t.Errorf("c = %d", get32(4))
	}
	if int16(m.Word(6)) != 123 {
		t.Errorf("narrow = %d", int16(m.Word(6)))
	}
}

func TestStringsAndMove(t *testing.T) {
	m := run(t, `
STRING src[0:11] := "hello world";
STRING dst[0:11];
INT cmp; INT pos; INT ch;
PROC main MAIN;
BEGIN
  MOVE dst := src FOR 11 BYTES;
  cmp := COMPAREBYTES(@dst, @src, 11);
  pos := SCANB(@src, "o", 11);
  ch := src[4];
END;
`)
	// src occupies 6 words at G+0, dst 6 at G+6, cmp at 12, pos 13, ch 14.
	if m.Word(12) != 0 {
		t.Errorf("cmp = %d", int16(m.Word(12)))
	}
	if m.Word(13) != 4 {
		t.Errorf("pos = %d, want 4", m.Word(13))
	}
	if m.Word(14) != 'o' {
		t.Errorf("ch = %d", m.Word(14))
	}
	if m.Word(6) != m.Word(0) || m.Word(8) != m.Word(2) {
		t.Error("MOVE did not copy")
	}
}

func TestCaseStatement(t *testing.T) {
	m := run(t, `
INT out[0:5];
PROC main MAIN;
BEGIN
  INT i;
  FOR i := 0 TO 5 DO
    CASE i OF
    BEGIN
      out[i] := 100;        ! arm 0
      out[i] := 200;        ! arm 1
      BEGIN out[i] := 300; END;  ! arm 2
      OTHERWISE out[i] := -1;
    END;
END;
`)
	want := []int16{100, 200, 300, -1, -1, -1}
	for i, w := range want {
		if got := int16(m.Word(uint16(i))); got != w {
			t.Errorf("out[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestConsoleBuiltins(t *testing.T) {
	m := run(t, `
STRING msg[0:3] := "ok: ";
PROC main MAIN;
BEGIN
  PUTS(@msg, 4);
  PUTNUM(42);
  PUTCHAR(10);
END;
`)
	if got := m.Console.String(); got != "ok: 42\n" {
		t.Errorf("console = %q", got)
	}
}

func TestLiteralAndDefine(t *testing.T) {
	m := run(t, `
LITERAL size = 5, twice = size * 2;
DEFINE bump = a := a + 1 #;
INT a; INT b;
PROC main MAIN;
BEGIN
  a := twice;
  bump;
  bump;
  b := size;
END;
`)
	if m.Word(0) != 12 || m.Word(1) != 5 {
		t.Errorf("literals: %d %d", m.Word(0), m.Word(1))
	}
}

func TestExtendedPointers(t *testing.T) {
	m := run(t, `
INT data[0:3] := [7, 8, 9, 10];
INT out1; INT out2;
INT .EXT p;
PROC main MAIN;
BEGIN
  @p := $XADR(data);
  out1 := p;          ! first element via 32-bit addressing
  out2 := p[3];
  p[2] := 55;
END;
`)
	if m.Word(4) != 7 || m.Word(5) != 10 {
		t.Errorf("ext loads: %d %d", m.Word(4), m.Word(5))
	}
	if m.Word(2) != 55 {
		t.Errorf("ext store: %d", m.Word(2))
	}
}

func TestCallHoisting(t *testing.T) {
	// Calls inside larger expressions must not disturb the register-stack
	// convention (empty at call sites); the compiler hoists them.
	m := run(t, `
INT r1; INT r2;
INT PROC add3(a, b, cc); INT a; INT b; INT cc;
BEGIN
  RETURN a + b + cc;
END;
INT PROC sq(x); INT x;
BEGIN
  RETURN x * x;
END;
PROC main MAIN;
BEGIN
  r1 := 1 + add3(sq(2), 10 + sq(3), sq(sq(2))) * 2;
  r2 := sq(add3(1, 2, 3)) - add3(sq(1), sq(2), sq(3));
END;
`)
	// add3(4, 19, 16) = 39; r1 = 1 + 78 = 79.
	if int16(m.Word(0)) != 79 {
		t.Errorf("r1 = %d, want 79", int16(m.Word(0)))
	}
	// sq(6) - add3(1,4,9) = 36 - 14 = 22.
	if int16(m.Word(1)) != 22 {
		t.Errorf("r2 = %d, want 22", int16(m.Word(1)))
	}
}

func TestSyscallProcs(t *testing.T) {
	// The library codefile's PEP 0 is "triple"; its MAIN is never entered.
	lib := MustCompile("lib", `
INT PROC triple(x); INT x;
BEGIN
  RETURN x + x + x;
END;
PROC ignored MAIN; BEGIN END;
`)
	f, err := Compile("test", `
INT out;
INT SYSPROC triple = 0;
PROC main MAIN;
BEGIN
  out := triple(14);
END;
`)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(f, lib)
	if err := m.Run(100000); err != nil {
		t.Fatal(err)
	}
	if m.Trap != tns.TrapNone {
		t.Fatalf("trap %d", m.Trap)
	}
	if m.Word(0) != 42 {
		t.Errorf("triple(14) = %d", m.Word(0))
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []string{
		`PROC main MAIN; BEGIN x := 1; END;`,       // undeclared
		`INT a; PROC main MAIN; BEGIN a := ; END;`, // bad expr
		`INT a;`, // no MAIN
		`PROC f(x); BEGIN END; PROC f(y); BEGIN END;`,               // dup proc
		`INT a[5:2]; PROC main MAIN; BEGIN END;`,                    // inverted bounds
		`PROC main MAIN; BEGIN RETURN 3; END;`,                      // value from untyped
		`INT PROC f; BEGIN RETURN; END; PROC main MAIN; BEGIN END;`, // missing value
	}
	for _, src := range cases {
		if _, err := Compile("bad", src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestStatementTableAndSymbols(t *testing.T) {
	f, err := Compile("dbg", `
INT counter;
PROC bump(n); INT n;
BEGIN
  counter := counter + n;
END;
PROC main MAIN;
BEGIN
  CALL bump(3);
  CALL bump(4);
END;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Statements) < 3 {
		t.Errorf("expected statement markers, got %d", len(f.Statements))
	}
	foundGlobal, foundParam := false, false
	for _, s := range f.Symbols {
		if s.Name == "COUNTER" && s.Kind == 0 {
			foundGlobal = true
		}
		if s.Name == "N" && s.Proc >= 0 {
			foundParam = true
		}
	}
	if !foundGlobal || !foundParam {
		t.Errorf("symbols missing: %+v", f.Symbols)
	}
	if !strings.Contains(f.Procs[f.MainPEP].Name, "main") {
		t.Error("main not recorded")
	}
}

func TestBigGlobals(t *testing.T) {
	// Arrays pushing data past the 256-word direct window still work (the
	// compiler emits the extra indexing steps the paper describes).
	m := run(t, `
INT pad[0:299];
INT far;
INT farr[0:9];
PROC main MAIN;
BEGIN
  INT i;
  far := 1234;
  FOR i := 0 TO 9 DO farr[i] := far + i;
  pad[250] := farr[9];
END;
`)
	if m.Word(300) != 1234 {
		t.Errorf("far = %d", m.Word(300))
	}
	if m.Word(301+9) != 1243 {
		t.Errorf("farr[9] = %d", m.Word(310))
	}
	if m.Word(250) != 1243 {
		t.Errorf("pad[250] = %d", m.Word(250))
	}
}

func TestDivisionSemantics(t *testing.T) {
	m := run(t, `
INT q1; INT q2; INT r1; INT r2;
PROC main MAIN;
BEGIN
  q1 := -7 / 2;
  q2 := 7 / -2;
  r1 := -7 \ 2;
  r2 := 7 \ -2;
END;
`)
	// TAL/TNS divide truncates toward zero; remainder keeps the dividend's
	// sign (matching MIPS div and Go).
	if int16(m.Word(0)) != -3 || int16(m.Word(1)) != -3 {
		t.Errorf("quotients: %d %d", int16(m.Word(0)), int16(m.Word(1)))
	}
	if int16(m.Word(2)) != -1 || int16(m.Word(3)) != 1 {
		t.Errorf("remainders: %d %d", int16(m.Word(2)), int16(m.Word(3)))
	}
}

func TestDanglingElse(t *testing.T) {
	m := run(t, `
INT a; INT b;
PROC main MAIN;
BEGIN
  a := 0;
  b := 0;
  IF 1 > 0 THEN
    IF 1 > 2 THEN a := 1
    ELSE a := 2;      ! binds to the inner IF
  IF 1 > 2 THEN
    IF 1 > 0 THEN b := 1
    ELSE b := 2;
END;
`)
	if m.Word(0) != 2 || m.Word(1) != 0 {
		t.Errorf("a=%d b=%d, want 2 0", int16(m.Word(0)), int16(m.Word(1)))
	}
}

func TestForByAndDownto(t *testing.T) {
	m := run(t, `
INT s1; INT s2; INT s3;
PROC main MAIN;
BEGIN
  INT i;
  s1 := 0;
  FOR i := 0 TO 10 BY 2 DO s1 := s1 + i;   ! 0+2+4+6+8+10
  s2 := 0;
  FOR i := 10 DOWNTO 1 BY 3 DO s2 := s2 + i; ! 10+7+4+1
  s3 := 0;
  FOR i := 5 TO 4 DO s3 := s3 + 1;          ! empty range
END;
`)
	if m.Word(0) != 30 || m.Word(1) != 22 || m.Word(2) != 0 {
		t.Errorf("s1=%d s2=%d s3=%d", m.Word(0), m.Word(1), m.Word(2))
	}
}

func TestShortCircuitSideEffects(t *testing.T) {
	m := run(t, `
INT calls; INT taken;
INT PROC bump;
BEGIN
  calls := calls + 1;
  RETURN 1;
END;
PROC main MAIN;
BEGIN
  calls := 0;
  taken := 0;
  IF 1 > 2 AND bump() = 1 THEN taken := 1;
  IF 1 < 2 OR bump() = 1 THEN taken := taken + 2;
END;
`)
	// Calls in conditions are hoisted and evaluated before the test (the
	// register stack must be empty at call sites), so bump runs even when
	// short-circuit evaluation would skip it in C. TAL shares this
	// "conditions are expressions" behaviour for hoisted calls; the
	// observable condition results are still correct.
	if m.Word(1) != 2 {
		t.Errorf("taken = %d, want 2", int16(m.Word(1)))
	}
	if m.Word(0) != 2 {
		t.Errorf("calls = %d (hoisted calls always evaluate)", int16(m.Word(0)))
	}
}

func TestWhileWithCompoundCondition(t *testing.T) {
	m := run(t, `
INT n; INT guard;
PROC main MAIN;
BEGIN
  n := 0;
  guard := 1;
  WHILE guard = 1 AND n < 10 DO
  BEGIN
    n := n + 1;
    IF n = 7 THEN guard := 0;
  END;
END;
`)
	if m.Word(0) != 7 {
		t.Errorf("n = %d, want 7", m.Word(0))
	}
}

func TestMoveWords(t *testing.T) {
	m := run(t, `
INT src[0:4] := [1, 2, 3, 4, 5];
INT dst[0:4];
PROC main MAIN;
BEGIN
  MOVE dst := src FOR 5 WORDS;
END;
`)
	for i := 0; i < 5; i++ {
		if m.Word(uint16(5+i)) != uint16(i+1) {
			t.Errorf("dst[%d] = %d", i, m.Word(uint16(5+i)))
		}
	}
}

func TestStringLiteralExpressionsAndPuts(t *testing.T) {
	m := run(t, `
PROC main MAIN;
BEGIN
  PUTS("greetings", 9);
  PUTCHAR(10);
END;
`)
	if got := m.Console.String(); got != "greetings\n" {
		t.Errorf("console = %q", got)
	}
}

func TestMoveFromStringLiteral(t *testing.T) {
	m := run(t, `
STRING buf[0:9];
INT ok;
PROC main MAIN;
BEGIN
  MOVE buf := "abcdef" FOR 6 BYTES;
  ok := COMPAREBYTES(@buf, "abcdef", 6);
END;
`)
	// buf occupies 5 words at G+0; ok at G+5.
	if int16(m.Word(5)) != 0 {
		t.Errorf("ok = %d", int16(m.Word(5)))
	}
}

func TestNestedCallsInConditions(t *testing.T) {
	m := run(t, `
INT hits;
INT PROC classify(x); INT x;
BEGIN
  IF x > 100 THEN RETURN 2;
  IF x > 10 THEN RETURN 1;
  RETURN 0;
END;
PROC main MAIN;
BEGIN
  INT i;
  hits := 0;
  FOR i := 1 TO 30 DO
    IF classify(i * 7) = 1 THEN hits := hits + 1;
END;
`)
	// i*7 in (10,100]: i in [2,14] -> 13 hits.
	if m.Word(0) != 13 {
		t.Errorf("hits = %d, want 13", m.Word(0))
	}
}

func TestCaseWithCallSelector(t *testing.T) {
	m := run(t, `
INT out;
INT PROC pick; BEGIN RETURN 1; END;
PROC main MAIN;
BEGIN
  CASE pick() OF
  BEGIN
    out := 10;
    out := 20;
    OTHERWISE out := -1;
  END;
END;
`)
	if int16(m.Word(0)) != 20 {
		t.Errorf("out = %d", int16(m.Word(0)))
	}
}

func TestMoreCompileErrors(t *testing.T) {
	cases := []string{
		`INT a; PROC main MAIN; BEGIN @a := 1; END;`,                 // @ of non-pointer
		`INT .p; PROC main MAIN; BEGIN p := 1 << p; END;`,            // dynamic shift
		`PROC f; BEGIN END; PROC main MAIN; BEGIN a := f(); END;`,    // void in expr
		`INT(16) x; PROC main MAIN; BEGIN END;`,                      // bad width
		`PROC main MAIN; BEGIN FOR 3 := 1 TO 2 DO; END;`,             // bad FOR var
		`STRING s[0:3]; PROC main MAIN; BEGIN MOVE s := FOR 2; END;`, // bad MOVE
	}
	for _, src := range cases {
		if _, err := Compile("bad", src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}
