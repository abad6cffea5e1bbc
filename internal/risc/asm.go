package risc

import (
	"fmt"

	"tnsr/internal/backend"
)

// Assemble translates RISC assembly text into instruction words. It exists
// for the hand-coded millicode routines and for tests. Labels, comments,
// .word, register names, immediates, extern constants and "off(base)"
// memory operands are the shared front end's (see backend.Asm). Branch and
// jump targets are labels or absolute word indexes. Pseudo-instructions:
// nop, move, li (32-bit constant via lui/ori), b (branch always), not, neg.
func Assemble(src string, extern map[string]uint32) ([]uint32, map[string]uint32, error) {
	return backend.Assemble(src, extern, instr)
}

func instr(a *backend.Asm, op string, ops []string) error {
	if o, ok := aluOps[op]; ok {
		rd, rs := a.Reg(ops[0]), a.Reg(ops[1])
		// Immediate forms are accepted for add/addu/and/or/xor/slt/sltu by
		// rewriting to the immediate opcode.
		if len(ops) == 3 && !backend.IsReg(ops[2]) {
			imm := a.Imm(ops[2])
			iop, ok := immFor[o]
			if !ok {
				return fmt.Errorf("%s does not take an immediate", op)
			}
			if (iop == ANDI || iop == ORI || iop == XORI) && (imm < 0 || imm > 0xFFFF) {
				return fmt.Errorf("%s immediate %d out of range", op, imm)
			}
			if (iop == ADDIU || iop == ADDI || iop == SLTI || iop == SLTIU) &&
				(imm < -32768 || imm > 32767) {
				return fmt.Errorf("%s immediate %d out of range", op, imm)
			}
			a.Put(EncImm(iop, rd, rs, int32(imm)))
			return nil
		}
		rt := a.Reg(ops[2])
		if o == SLLV || o == SRLV || o == SRAV {
			// "sllv rd, rt, rs": value first, then shift-amount register.
			rs, rt = rt, rs
		}
		a.Put(EncALU(o, rd, rs, rt))
		return nil
	}
	if o, ok := immOps[op]; ok {
		rt := a.Reg(ops[0])
		if o == LUI {
			a.Put(EncImm(LUI, rt, 0, int32(a.Imm(ops[1]))))
			return nil
		}
		rs := a.Reg(ops[1])
		a.Put(EncImm(o, rt, rs, int32(a.Imm(ops[2]))))
		return nil
	}
	if o, ok := shiftOps[op]; ok {
		rd, rt := a.Reg(ops[0]), a.Reg(ops[1])
		a.Put(EncShift(o, rd, rt, uint8(a.Imm(ops[2]))))
		return nil
	}
	if o, ok := memOps[op]; ok {
		rt := a.Reg(ops[0])
		off, base := a.Mem(ops[1])
		a.Put(EncMem(o, rt, base, off))
		return nil
	}
	o := otherOps[op]
	switch op {
	case "nop":
		a.Put(NOP)
	case "move":
		rd, rs := a.Reg(ops[0]), a.Reg(ops[1])
		a.Put(EncALU(ADDU, rd, rs, RegZero))
	case "not":
		rd, rs := a.Reg(ops[0]), a.Reg(ops[1])
		a.Put(EncALU(NOR, rd, rs, RegZero))
	case "neg":
		rd, rs := a.Reg(ops[0]), a.Reg(ops[1])
		a.Put(EncALU(SUBU, rd, RegZero, rs))
	case "li":
		rd := a.Reg(ops[0])
		emitLI(a, rd, uint32(a.Imm(ops[1])))
	case "b":
		a.Put(EncBranch(BEQ, RegZero, RegZero, a.BranchDisp(ops[0])))
	case "beq", "bne":
		rs, rt := a.Reg(ops[0]), a.Reg(ops[1])
		a.Put(EncBranch(o, rs, rt, a.BranchDisp(ops[2])))
	case "blez", "bgtz", "bltz", "bgez":
		rs := a.Reg(ops[0])
		a.Put(EncBranch(o, rs, 0, a.BranchDisp(ops[1])))
	case "j", "jal":
		a.Put(EncJ(o, uint32(a.Imm(ops[0]))))
	case "jr":
		a.Put(EncJR(a.Reg(ops[0])))
	case "jalr":
		rd, rs := a.Reg(ops[0]), a.Reg(ops[1])
		a.Put(EncJALR(rd, rs))
	case "mult", "multu", "div", "divu":
		rs, rt := a.Reg(ops[0]), a.Reg(ops[1])
		a.Put(EncMulDiv(o, rs, rt))
	case "mfhi", "mflo":
		a.Put(EncMulDiv(o, a.Reg(ops[0]), 0))
	case "break":
		a.Put(EncBreak(a.Code(ops)))
	case "syscall":
		a.Put(EncSyscall(a.Code(ops)))
	default:
		return fmt.Errorf("unknown mnemonic %q", op)
	}
	return nil
}

func emitLI(a *backend.Asm, rd uint8, v uint32) {
	if v <= 0xFFFF {
		a.Put(EncImm(ORI, rd, RegZero, int32(v)))
		return
	}
	if int32(v) >= -32768 && int32(v) < 0 {
		a.Put(EncImm(ADDIU, rd, RegZero, int32(v)))
		return
	}
	a.Put(EncImm(LUI, rd, 0, int32(v>>16)))
	if v&0xFFFF != 0 {
		a.Put(EncImm(ORI, rd, rd, int32(v&0xFFFF)))
	}
}

var aluOps = map[string]Op{
	"add": ADD, "addu": ADDU, "sub": SUB, "subu": SUBU, "and": AND,
	"or": OR, "xor": XOR, "nor": NOR, "slt": SLT, "sltu": SLTU,
	"sllv": SLLV, "srlv": SRLV, "srav": SRAV,
}

var immFor = map[Op]Op{
	ADD: ADDI, ADDU: ADDIU, AND: ANDI, OR: ORI, XOR: XORI,
	SLT: SLTI, SLTU: SLTIU,
}

var immOps = map[string]Op{
	"addi": ADDI, "addiu": ADDIU, "slti": SLTI, "sltiu": SLTIU,
	"andi": ANDI, "ori": ORI, "xori": XORI, "lui": LUI,
}

var shiftOps = map[string]Op{"sll": SLL, "srl": SRL, "sra": SRA}

var memOps = map[string]Op{
	"lb": LB, "lh": LH, "lw": LW, "lbu": LBU, "lhu": LHU,
	"sb": SB, "sh": SH, "sw": SW,
}

// otherOps maps the remaining mnemonics that name one opcode.
var otherOps = map[string]Op{
	"beq": BEQ, "bne": BNE, "blez": BLEZ, "bgtz": BGTZ, "bltz": BLTZ, "bgez": BGEZ,
	"j": J, "jal": JAL, "mult": MULT, "multu": MULTU, "div": DIV, "divu": DIVU,
	"mfhi": MFHI, "mflo": MFLO,
}
