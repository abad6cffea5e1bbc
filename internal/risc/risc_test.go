package risc

import (
	"testing"
	"testing/quick"
	"tnsr/internal/backend"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []uint32{
		EncALU(ADDU, 5, 6, 7),
		EncALU(SLT, 1, 2, 3),
		EncALU(SLLV, 4, 9, 8),
		EncShift(SLL, 3, 4, 15),
		EncShift(SRA, 3, 4, 1),
		EncImm(ADDIU, 2, 3, -100),
		EncImm(ORI, 2, 3, 0xFFFF),
		EncImm(LUI, 2, 0, 0x1234),
		EncMem(LW, 8, 9, -4),
		EncMem(SH, 8, 9, 32766),
		EncBranch(BEQ, 1, 2, -5),
		EncBranch(BLTZ, 1, 0, 100),
		EncBranch(BGEZ, 1, 0, -1),
		EncJ(J, 12345),
		EncJ(JAL, 1),
		EncJR(31),
		EncJALR(30, 2),
		EncMulDiv(MULT, 3, 4),
		EncMulDiv(MFLO, 5, 0),
		EncBreak(77),
		EncSyscall(3),
	}
	for _, w := range cases {
		in := Decode(w)
		if in.Op == INVALID {
			t.Errorf("word %08x decodes to INVALID", w)
		}
	}
	// Specific field checks.
	in := Decode(EncImm(ADDIU, 2, 3, -100))
	if in.Op != ADDIU || in.Rt != 2 || in.Rs != 3 || in.Imm != -100 {
		t.Errorf("ADDIU: %+v", in)
	}
	in = Decode(EncMem(LW, 8, 9, -4))
	if in.Op != LW || in.Rt != 8 || in.Rs != 9 || in.Imm != -4 {
		t.Errorf("LW: %+v", in)
	}
	in = Decode(EncBreak(77))
	if in.Op != BREAK || in.Target != 77 {
		t.Errorf("BREAK: %+v", in)
	}
	in = Decode(EncBranch(BGEZ, 1, 0, -1))
	if in.Op != BGEZ || in.Rs != 1 || in.Imm != -1 {
		t.Errorf("BGEZ: %+v", in)
	}
}

func TestImmRoundTripProperty(t *testing.T) {
	f := func(rt, rs uint8, imm int16) bool {
		in := Decode(EncImm(ADDIU, rt&31, rs&31, int32(imm)))
		return in.Rt == rt&31 && in.Rs == rs&31 && in.Imm == int32(imm)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func runAsm(t *testing.T, src string, maxInstrs int64) *Sim {
	t.Helper()
	code, _, err := Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(code, 1<<16, Config{MulLatency: 12, DivLatency: 35})
	if err := s.Run(maxInstrs); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSimArithmetic(t *testing.T) {
	s := runAsm(t, `
  li $t0, 7
  li $t1, 5
  addu $t2, $t0, $t1
  subu $t3, $t0, $t1
  and  $t4, $t0, $t1
  or   $t5, $t0, $t1
  xor  $t6, $t0, $t1
  slt  $t7, $t1, $t0
  break 0
`, 100)
	want := map[uint8]uint32{
		RegT0 + 2: 12, RegT0 + 3: 2, RegT0 + 4: 5, RegT0 + 5: 7,
		RegT0 + 6: 2, RegT0 + 7: 1,
	}
	for r, v := range want {
		if s.Reg[r] != v {
			t.Errorf("%s = %d, want %d", backend.RegName(r), s.Reg[r], v)
		}
	}
}

func TestSimMemoryBigEndian(t *testing.T) {
	s := runAsm(t, `
  li $t0, 0x1234
  sh $t0, 0x100($z)
  lbu $t1, 0x100($z)
  lbu $t2, 0x101($z)
  lh  $t3, 0x100($z)
  li $t4, 0xDEADBEEF
  sw $t4, 0x104($z)
  lw $t5, 0x104($z)
  break 0
`, 100)
	if s.Reg[RegT0+1] != 0x12 || s.Reg[RegT0+2] != 0x34 {
		t.Errorf("bytes: %x %x", s.Reg[RegT0+1], s.Reg[RegT0+2])
	}
	if s.Reg[RegT0+3] != 0x1234 {
		t.Errorf("lh = %x", s.Reg[RegT0+3])
	}
	if s.Reg[RegT0+5] != 0xDEADBEEF {
		t.Errorf("lw = %x", s.Reg[RegT0+5])
	}
}

func TestSimSignExtension(t *testing.T) {
	s := runAsm(t, `
  li $t0, 0x80FF
  sh $t0, 0x100($z)
  lh  $t1, 0x100($z)
  lhu $t2, 0x100($z)
  lb  $t3, 0x100($z)
  break 0
`, 100)
	if s.Reg[RegT0+1] != 0xFFFF80FF {
		t.Errorf("lh sign extension = %x", s.Reg[RegT0+1])
	}
	if s.Reg[RegT0+2] != 0x80FF {
		t.Errorf("lhu = %x", s.Reg[RegT0+2])
	}
	if s.Reg[RegT0+3] != 0xFFFFFF80 {
		t.Errorf("lb = %x", s.Reg[RegT0+3])
	}
}

func TestSimBranchDelaySlot(t *testing.T) {
	// The instruction after a taken branch always executes.
	s := runAsm(t, `
  li $t0, 1
  beq $z, $z, target
  li $t1, 42     ; delay slot: executes
  li $t2, 99     ; skipped
target:
  break 0
`, 100)
	if s.Reg[RegT0+1] != 42 {
		t.Error("delay slot did not execute")
	}
	if s.Reg[RegT0+2] == 99 {
		t.Error("branch did not skip")
	}
}

func TestSimJALAndJR(t *testing.T) {
	s := runAsm(t, `
  jal sub
  nop            ; delay slot
  break 0
sub:
  li $t0, 5
  jr $ra
  li $t1, 6      ; delay slot of jr
`, 100)
	if s.Reg[RegT0] != 5 || s.Reg[RegT0+1] != 6 {
		t.Errorf("t0=%d t1=%d", s.Reg[RegT0], s.Reg[RegT0+1])
	}
	if s.BreakCode != 0 || !s.Stopped {
		t.Error("did not stop at break")
	}
}

func TestSimLoop(t *testing.T) {
	// Sum 1..10.
	s := runAsm(t, `
  li $t0, 0      ; sum
  li $t1, 1      ; i
loop:
  addu $t0, $t0, $t1
  addiu $t1, $t1, 1
  slti $t2, $t1, 11
  bne $t2, $z, loop
  nop
  break 0
`, 1000)
	if s.Reg[RegT0] != 55 {
		t.Errorf("sum = %d", s.Reg[RegT0])
	}
}

func TestSimMultDiv(t *testing.T) {
	s := runAsm(t, `
  li $t0, -6
  li $t1, 7
  mult $t0, $t1
  mflo $t2       ; -42
  li $t3, 43
  li $t4, 10
  div $t3, $t4
  mflo $t5       ; 4
  mfhi $t6       ; 3
  break 0
`, 100)
	if int32(s.Reg[RegT0+2]) != -42 {
		t.Errorf("mult = %d", int32(s.Reg[RegT0+2]))
	}
	if s.Reg[RegT0+5] != 4 || s.Reg[RegT0+6] != 3 {
		t.Errorf("div = %d rem %d", s.Reg[RegT0+5], s.Reg[RegT0+6])
	}
	if s.MDStalls == 0 {
		t.Error("expected multiply/divide stalls")
	}
}

func TestSimLoadUseStall(t *testing.T) {
	s := runAsm(t, `
  sh $z, 0x100($z)
  lh $t0, 0x100($z)
  addu $t1, $t0, $t0   ; uses t0 right after load: stall
  break 0
`, 100)
	if s.LoadStalls != 1 {
		t.Errorf("load stalls = %d, want 1", s.LoadStalls)
	}
	s2 := runAsm(t, `
  sh $z, 0x100($z)
  lh $t0, 0x100($z)
  nop
  addu $t1, $t0, $t0   ; gap filled: no stall
  break 0
`, 100)
	if s2.LoadStalls != 0 {
		t.Errorf("load stalls = %d, want 0", s2.LoadStalls)
	}
}

func TestSimOverflowTrap(t *testing.T) {
	s := runAsm(t, `
  lui $t0, 0x7FFF
  ori $t0, $t0, 0xFFFF
  addi $t1, $t0, 1
  break 0
`, 100)
	if s.Trap != TrapOverflow {
		t.Errorf("trap = %d, want overflow", s.Trap)
	}
}

func TestSimAddressTrap(t *testing.T) {
	s := runAsm(t, `
  li $t0, 0x101
  lh $t1, 0($t0)   ; unaligned halfword
  break 0
`, 100)
	if s.Trap != TrapAddress {
		t.Errorf("trap = %d, want address", s.Trap)
	}
}

func TestSimSyscallHook(t *testing.T) {
	code, _, err := Assemble(`
  li $t0, 65
  syscall 1
  break 0
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(code, 1<<12, Config{})
	var got []uint32
	s.OnSyscall = func(s *backend.CPU, c uint32) {
		got = append(got, c, s.Reg[RegT0])
	}
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 65 {
		t.Errorf("syscall hook got %v", got)
	}
}

func TestSimCacheCounting(t *testing.T) {
	cfg := Config{
		ICache:      CacheConfig{SizeBytes: 64, LineBytes: 16},
		DCache:      CacheConfig{SizeBytes: 64, LineBytes: 16},
		MissPenalty: 10,
	}
	code, _, err := Assemble(`
  li $t0, 0
  li $t1, 0
loop:
  lh $t2, 0x1000($t1)
  addiu $t1, $t1, 256  ; stride larger than the tiny cache: always miss
  slti $t3, $t1, 2048
  bne $t3, $z, loop
  nop
  break 0
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(code, 1<<16, cfg)
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if s.DCacheMisses < 8 {
		t.Errorf("dcache misses = %d, want >= 8", s.DCacheMisses)
	}
	if s.Cycles <= s.Instrs {
		t.Error("miss penalties should add cycles")
	}
}

func TestSimStoreTrace(t *testing.T) {
	code, _, err := Assemble(`
  li $t0, 0x1234
  sh $t0, 0x100($z)
  sb $t0, 0x103($z)
  break 0
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(code, 1<<12, Config{})
	var trace []uint64
	s.StoreTrace = func(a uint32, v uint16) {
		trace = append(trace, uint64(a)<<16|uint64(v))
	}
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || trace[0] != 0x100<<16|0x1234 || trace[1] != 0x102<<16|0x0034 {
		t.Errorf("trace = %x", trace)
	}
}

func TestSimBreakResumeAt(t *testing.T) {
	code, _, err := Assemble(`
  li $t0, 1
  break 5
  li $t0, 2
  break 6
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(code, 1<<12, Config{})
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if s.BreakCode != 5 || s.Reg[RegT0] != 1 {
		t.Fatalf("first break: code=%d t0=%d", s.BreakCode, s.Reg[RegT0])
	}
	s.ResumeAt(s.PC + 1)
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if s.BreakCode != 6 || s.Reg[RegT0] != 2 {
		t.Errorf("second break: code=%d t0=%d", s.BreakCode, s.Reg[RegT0])
	}
}

func TestDefUse(t *testing.T) {
	in := Decode(EncMem(LW, 5, 6, 0))
	if in.Def() != 5 {
		t.Error("LW def")
	}
	if u := in.Uses(nil); len(u) != 1 || u[0] != 6 {
		t.Error("LW uses")
	}
	in = Decode(EncMem(SW, 5, 6, 0))
	if in.Def() != -1 {
		t.Error("SW has no def")
	}
	if u := in.Uses(nil); len(u) != 2 {
		t.Error("SW uses")
	}
	in = Decode(EncALU(ADDU, 1, 2, 3))
	if in.Def() != 1 {
		t.Error("ADDU def")
	}
	in = Decode(EncJ(JAL, 0))
	if in.Def() != RegRA {
		t.Error("JAL defines $ra")
	}
	if !Decode(EncMulDiv(MULT, 1, 2)).WritesHILO() {
		t.Error("MULT writes HILO")
	}
	if !Decode(EncMulDiv(MFLO, 1, 0)).ReadsHILO() {
		t.Error("MFLO reads HILO")
	}
}

func TestDisassembleForms(t *testing.T) {
	cases := map[uint32]string{
		NOP:                                 "nop",
		EncALU(ADDU, RegT0, RegR0, RegR0+1): "addu $t0, $r0, $r1",
		EncMem(LH, RegT0, RegDB, 10):        "lh $t0, 10($db)",
		EncJR(RegRA):                        "jr $ra",
		EncBreak(3):                         "break 3",
		EncImm(LUI, RegT1(), 0, 5):          "lui $t1, 5",
	}
	for w, want := range cases {
		if got := Disassemble(0, w); got != want {
			t.Errorf("Disassemble(%08x) = %q, want %q", w, got, want)
		}
	}
}

func RegT1() uint8 { return RegT0 + 1 }

// TestAsmSimRoundTrip: branches both directions assemble to correct targets.
func TestAsmBranchTargets(t *testing.T) {
	code, labels, err := Assemble(`
start:
  nop
  bne $t0, $z, start
  nop
  beq $t0, $z, fwd
  nop
  nop
fwd:
  break 0
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if labels["start"] != 0 || labels["fwd"] != 6 {
		t.Fatalf("labels: %v", labels)
	}
	in := Decode(code[1])
	if got := int64(1) + 1 + int64(in.Imm); got != 0 {
		t.Errorf("backward branch target = %d", got)
	}
	in = Decode(code[3])
	if got := int64(3) + 1 + int64(in.Imm); got != 6 {
		t.Errorf("forward branch target = %d", got)
	}
}

func TestAsmExtern(t *testing.T) {
	code, _, err := Assemble(`
  li $t0, PMAP_BASE
  lw $t1, TABLE($z)
`, map[string]uint32{"PMAP_BASE": 0x20000, "TABLE": 0x44})
	if err != nil {
		t.Fatal(err)
	}
	if len(code) < 2 {
		t.Fatal("short code")
	}
	in := Decode(code[len(code)-1])
	if in.Op != LW || in.Imm != 0x44 {
		t.Errorf("extern in mem operand: %+v", in)
	}
}

func TestAsmErrors(t *testing.T) {
	for _, src := range []string{
		"frobnicate $t0",
		"addu $t0, $qq, $t1",
		"lw $t0, nope",
		"dup: nop\ndup: nop",
		"move $t0",
		"lw $t0",
		"beq $t0, $t1",
		"li",
		"sll $t0, $t1",
	} {
		if _, _, err := Assemble(src, nil); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}
