package risc

import (
	"fmt"

	"tnsr/internal/backend"
)

// Disassemble renders the instruction at word index pc.
func Disassemble(pc uint32, w uint32) string {
	in := Decode(w)
	r := backend.RegName
	switch in.Op {
	case INVALID:
		if w == NOP {
			return "nop"
		}
		return fmt.Sprintf(".word 0x%08x", w)
	case SLL, SRL, SRA:
		if w == NOP {
			return "nop"
		}
		return fmt.Sprintf("%s %s, %s, %d", in.Op, r(in.Rd), r(in.Rt), in.Shamt)
	case SLLV, SRLV, SRAV:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, r(in.Rd), r(in.Rt), r(in.Rs))
	case ADD, ADDU, SUB, SUBU, AND, OR, XOR, NOR, SLT, SLTU:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, r(in.Rd), r(in.Rs), r(in.Rt))
	case JR:
		return fmt.Sprintf("jr %s", r(in.Rs))
	case JALR:
		return fmt.Sprintf("jalr %s, %s", r(in.Rd), r(in.Rs))
	case SYSCALL, BREAK:
		return fmt.Sprintf("%s %d", in.Op, in.Target)
	case MFHI, MFLO:
		return fmt.Sprintf("%s %s", in.Op, r(in.Rd))
	case MULT, MULTU, DIV, DIVU:
		return fmt.Sprintf("%s %s, %s", in.Op, r(in.Rs), r(in.Rt))
	case J, JAL:
		return fmt.Sprintf("%s %d", in.Op, in.Target)
	case BEQ, BNE:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, r(in.Rs), r(in.Rt),
			int64(pc)+1+int64(in.Imm))
	case BLEZ, BGTZ, BLTZ, BGEZ:
		return fmt.Sprintf("%s %s, %d", in.Op, r(in.Rs),
			int64(pc)+1+int64(in.Imm))
	case ADDI, ADDIU, SLTI, SLTIU, ANDI, ORI, XORI:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, r(in.Rt), r(in.Rs), in.Imm)
	case LUI:
		return fmt.Sprintf("lui %s, %d", r(in.Rt), in.Imm)
	case LB, LH, LW, LBU, LHU, SB, SH, SW:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, r(in.Rt), in.Imm, r(in.Rs))
	}
	return fmt.Sprintf(".word 0x%08x", w)
}
