package backend

import (
	"fmt"
	"strconv"
	"strings"
)

// Asm is the assembler front end every backend shares; a backend's
// assembler supplies only its mnemonic table (an Instr). The syntax:
//
//	label:                     define a label (word index)
//	op operands  ; comment     one instruction, operands comma-separated
//	.word n                    a raw data word
//
// Comments also start with '#'. Registers use the names of RegName ($z,
// $r0..$r7, $db, $l, $s, $cc, $k, $v, $env, $t0..$t13, $mt, $ra) or $N.
// Immediates are extern names (runtime table addresses), labels, or
// decimal or 0x-hex numbers. Memory operands are "off(base)", where off is
// an immediate and may be omitted.
//
// The source is scanned twice: pass 1 measures and collects labels, pass 2
// emits. The operand parsers record the first error of a line and return
// zero, so an Instr can read its operands straight into an encoder; the
// error is reported once the Instr returns. A panic inside an Instr (a
// short operand list, or an encoder's range check) is reported as an error
// of its line too.
type Asm struct {
	labels map[string]uint32
	extern map[string]uint32
	out    []uint32
	pc     uint32
	emit   bool
	err    error
}

// Instr assembles one instruction from its lower-cased mnemonic and its
// operands by calling Put once per word. It must put the same number of
// words in both passes.
type Instr func(a *Asm, op string, ops []string) error

// Assemble assembles src with the mnemonic table instr and returns the
// words and the label map.
func Assemble(src string, extern map[string]uint32, instr Instr) ([]uint32, map[string]uint32, error) {
	a := &Asm{labels: map[string]uint32{}, extern: extern}
	// Pass 1: measure, collect labels.
	if err := a.scan(src, instr); err != nil {
		return nil, nil, err
	}
	a.out = make([]uint32, 0, a.pc)
	a.pc = 0
	a.emit = true
	// Pass 2: emit.
	if err := a.scan(src, instr); err != nil {
		return nil, nil, err
	}
	return a.out, a.labels, nil
}

func (a *Asm) scan(src string, instr Instr) error {
	for ln, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		for {
			i := strings.IndexByte(line, ':')
			if i < 0 || strings.ContainsAny(line[:i], " \t(") {
				break
			}
			if !a.emit {
				if _, dup := a.labels[line[:i]]; dup {
					return fmt.Errorf("line %d: duplicate label %q", ln+1, line[:i])
				}
				a.labels[line[:i]] = a.pc
			}
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		if err := a.line(line, instr); err != nil {
			return fmt.Errorf("line %d: %w", ln+1, err)
		}
	}
	return nil
}

// line assembles one instruction line. Any error ends the assembly, so the
// recorded error never outlives its line.
func (a *Asm) line(line string, instr Instr) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = a.err
			if err == nil {
				err = fmt.Errorf("%q: %v", line, p)
			}
		}
	}()
	fields := strings.Fields(line)
	op := strings.ToLower(fields[0])
	ops := splitOperands(strings.TrimSpace(line[len(fields[0]):]))
	if op == ".word" {
		a.Put(uint32(a.Imm(ops[0])))
	} else {
		err = instr(a, op, ops)
	}
	if a.err != nil {
		return a.err
	}
	return err
}

// Put emits one word (pass 2) and advances the location counter.
func (a *Asm) Put(w uint32) {
	if a.emit {
		a.out = append(a.out, w)
	}
	a.pc++
}

func (a *Asm) fail(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf(format, args...)
	}
}

var regNames = func() map[string]uint8 {
	m := map[string]uint8{}
	for r := uint8(0); r < 32; r++ {
		m[RegName(r)] = r
		m[fmt.Sprintf("$%d", r)] = r
	}
	return m
}()

// IsReg reports whether the operand s names a register.
func IsReg(s string) bool {
	_, ok := regNames[strings.ToLower(strings.TrimSpace(s))]
	return ok
}

// Reg parses a register operand.
func (a *Asm) Reg(s string) uint8 {
	r, ok := regNames[strings.ToLower(strings.TrimSpace(s))]
	if !ok {
		a.fail("bad register %q", s)
	}
	return r
}

// Imm parses an immediate operand: an extern name, then a label, then a
// number. In pass 1 an unknown name reads as 0, since it may be a label
// defined further on.
func (a *Asm) Imm(s string) int64 {
	s = strings.TrimSpace(s)
	if v, ok := a.extern[s]; ok {
		return int64(v)
	}
	if l, ok := a.labels[s]; ok {
		return int64(l)
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg, s = true, s[1:]
	}
	var v int64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseInt(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseInt(s, 10, 64)
	}
	if err != nil {
		if a.emit {
			a.fail("bad immediate %q", s)
		}
		return 0
	}
	if neg {
		v = -v
	}
	return v
}

// Mem parses an "off(base)" memory operand.
func (a *Asm) Mem(s string) (off int32, base uint8) {
	s = strings.TrimSpace(s)
	i := strings.IndexByte(s, '(')
	j := strings.IndexByte(s, ')')
	if i < 0 || j < i {
		a.fail("bad memory operand %q", s)
		return 0, 0
	}
	if i > 0 {
		off = int32(a.Imm(s[:i]))
	}
	return off, a.Reg(s[i+1 : j])
}

// BranchDisp parses a branch target and returns its displacement in words
// from the instruction after the branch; 0 in pass 1.
func (a *Asm) BranchDisp(s string) int32 {
	t := a.Imm(s)
	if !a.emit {
		return 0
	}
	return int32(t) - int32(a.pc) - 1
}

// Code parses the optional code operand of a trap instruction; 0 if absent.
func (a *Asm) Code(ops []string) uint32 {
	if len(ops) == 0 {
		return 0
	}
	return uint32(a.Imm(ops[0]))
}

func splitOperands(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}
