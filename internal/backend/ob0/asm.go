package ob0

import (
	"fmt"

	"tnsr/internal/backend"
)

// Assemble translates ob0 assembly text into instruction words. It exists
// for the hand-coded millicode routines and for tests. Labels, comments,
// .word, register names, immediates, extern constants and "off(base)"
// memory operands are the shared front end's (see backend.Asm), the same
// as the risc assembler's. Branch and jump targets are labels or absolute
// word indexes. Pseudo-instructions: nop, move, li (32-bit constant), b
// (alias of ja), not, neg. R-type mnemonics accept an immediate third
// operand and rewrite to the immediate opcode (add -> addi, ior -> iori,
// lsl -> lsli, cmp -> cmpi, ...). The encoders panic on out-of-range
// fields, which the front end reports as errors of the line.
func Assemble(src string, extern map[string]uint32) ([]uint32, map[string]uint32, error) {
	return backend.Assemble(src, extern, instr)
}

// rOps are the three-register mnemonics; immFor rewrites them when the
// third operand is an immediate.
var rOps = map[string]Op{
	"add": ADD, "addt": ADDT, "sub": SUB, "subt": SUBT, "and": AND,
	"ior": IOR, "xor": XOR, "nor": NOR, "lsl": LSL, "lsr": LSR, "asr": ASR,
	"slt": SLT, "sltu": SLTU, "mul": MUL, "mulu": MULU,
	"dvq": DVQ, "dvqu": DVQU,
}

var immFor = map[Op]Op{
	ADD: ADDI, ADDT: ADTI, AND: ANDI, IOR: IORI, XOR: XORI,
	SLT: SLTI, SLTU: SLTIU, LSL: LSLI, LSR: LSRI, ASR: ASRI,
}

var iOps = map[string]Op{
	"addi": ADDI, "adti": ADTI, "andi": ANDI, "iori": IORI, "xori": XORI,
	"slti": SLTI, "sltiu": SLTIU, "lsli": LSLI, "lsri": LSRI, "asri": ASRI,
}

var memOps = map[string]Op{
	"ldb": LDB, "ldbu": LDBU, "ldh": LDH, "ldhu": LDHU, "ldw": LDW,
	"stb": STB, "sth": STH, "stw": STW,
}

var brOps = map[string]Op{
	"beq": BEQ, "bne": BNE, "blt": BLT, "bge": BGE, "ble": BLE, "bgt": BGT,
}

func instr(a *backend.Asm, op string, ops []string) error {
	if o, ok := rOps[op]; ok {
		ra, rb := a.Reg(ops[0]), a.Reg(ops[1])
		if len(ops) == 3 && !backend.IsReg(ops[2]) {
			imm := a.Imm(ops[2])
			iop, ok := immFor[o]
			if !ok {
				return fmt.Errorf("%s does not take an immediate", op)
			}
			a.Put(EncI(iop, ra, rb, int32(imm)))
			return nil
		}
		a.Put(EncR(o, ra, rb, a.Reg(ops[2])))
		return nil
	}
	if o, ok := iOps[op]; ok {
		ra, rb := a.Reg(ops[0]), a.Reg(ops[1])
		a.Put(EncI(o, ra, rb, int32(a.Imm(ops[2]))))
		return nil
	}
	if o, ok := memOps[op]; ok {
		ra := a.Reg(ops[0])
		off, base := a.Mem(ops[1])
		a.Put(EncM(o, ra, base, off))
		return nil
	}
	if o, ok := brOps[op]; ok {
		a.Put(EncBr(o, a.BranchDisp(ops[0])))
		return nil
	}
	switch op {
	case "nop":
		a.Put(Nop)
	case "move":
		ra, rb := a.Reg(ops[0]), a.Reg(ops[1])
		a.Put(EncR(ADD, ra, rb, backend.RegZero))
	case "not":
		ra, rb := a.Reg(ops[0]), a.Reg(ops[1])
		a.Put(EncR(NOR, ra, rb, backend.RegZero))
	case "neg":
		ra, rb := a.Reg(ops[0]), a.Reg(ops[1])
		a.Put(EncR(SUB, ra, backend.RegZero, rb))
	case "li":
		ra := a.Reg(ops[0])
		emitLI(a, ra, uint32(a.Imm(ops[1])))
	case "mvh":
		a.Put(EncR(MVH, a.Reg(ops[0]), 0, 0))
	case "mvhi":
		ra := a.Reg(ops[0])
		a.Put(EncI(MVHI, ra, 0, int32(a.Imm(ops[1]))))
	case "cmp":
		rb := a.Reg(ops[0])
		if !backend.IsReg(ops[1]) {
			a.Put(EncI(CMPI, 0, rb, int32(a.Imm(ops[1]))))
		} else {
			a.Put(EncR(CMP, 0, rb, a.Reg(ops[1])))
		}
	case "cmpi":
		rb := a.Reg(ops[0])
		a.Put(EncI(CMPI, 0, rb, int32(a.Imm(ops[1]))))
	case "b", "ja":
		a.Put(EncJ(JA, uint32(a.Imm(ops[0]))))
	case "jla":
		a.Put(EncJ(JLA, uint32(a.Imm(ops[0]))))
	case "jr":
		a.Put(EncJR(a.Reg(ops[0])))
	case "jlr":
		ra, rb := a.Reg(ops[0]), a.Reg(ops[1])
		a.Put(EncJLR(ra, rb))
	case "brk":
		a.Put(EncBrk(a.Code(ops)))
	case "svc":
		a.Put(EncSvc(a.Code(ops)))
	default:
		return fmt.Errorf("unknown mnemonic %q", op)
	}
	return nil
}

// emitLI loads a 32-bit constant with a deterministic width: one word for
// values expressible by iori/addi, an mvhi(+iori) pair otherwise.
func emitLI(a *backend.Asm, ra uint8, v uint32) {
	if v <= 0xFFFF {
		a.Put(EncI(IORI, ra, backend.RegZero, int32(v)))
		return
	}
	if int32(v) >= -32768 && int32(v) < 0 {
		a.Put(EncI(ADDI, ra, backend.RegZero, int32(v)))
		return
	}
	a.Put(EncI(MVHI, ra, 0, int32(v>>16)))
	if v&0xFFFF != 0 {
		a.Put(EncI(IORI, ra, ra, int32(v&0xFFFF)))
	}
}
