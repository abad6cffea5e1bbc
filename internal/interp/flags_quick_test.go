package interp

import (
	"testing"
	"testing/quick"

	"tnsr/internal/tnsasm"
)

// Property tests pinning the arithmetic flag semantics against wide-integer
// references — the definitions the translated code must match exactly.

func TestAdd16FlagsProperty(t *testing.T) {
	f := func(a, b int16) bool {
		sum, k, v := add16(uint16(a), uint16(b))
		wide := int32(a) + int32(b)
		if int16(sum) != int16(wide) {
			return false
		}
		if k != (uint32(uint16(a))+uint32(uint16(b)) > 0xFFFF) {
			return false
		}
		return v == (wide > 32767 || wide < -32768)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSub16FlagsProperty(t *testing.T) {
	f := func(a, b int16) bool {
		diff, k, v := sub16(uint16(a), uint16(b))
		wide := int32(a) - int32(b)
		if int16(diff) != int16(wide) {
			return false
		}
		if k != (uint16(a) >= uint16(b)) { // K = no borrow
			return false
		}
		return v == (wide > 32767 || wide < -32768)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestArithmeticAgainstGoSemantics runs random binary operations through
// the interpreter and compares with Go's arithmetic on int16.
func TestArithmeticAgainstGoSemantics(t *testing.T) {
	type opdef struct {
		mnem string
		ref  func(a, b int16) (int16, bool) // result, defined
	}
	ops := []opdef{
		{"ADD", func(a, b int16) (int16, bool) { return int16(int32(a) + int32(b)), true }},
		{"SUB", func(a, b int16) (int16, bool) { return int16(int32(a) - int32(b)), true }},
		{"MPY", func(a, b int16) (int16, bool) { return int16(int32(a) * int32(b)), true }},
		{"LAND", func(a, b int16) (int16, bool) { return a & b, true }},
		{"LOR", func(a, b int16) (int16, bool) { return a | b, true }},
		{"XOR", func(a, b int16) (int16, bool) { return a ^ b, true }},
		{"DIV", func(a, b int16) (int16, bool) {
			if b == 0 || (a == -32768 && b == -1) {
				return 0, false
			}
			return a / b, true
		}},
		{"MOD", func(a, b int16) (int16, bool) {
			if b == 0 {
				return 0, false
			}
			return a % b, true
		}},
	}
	for _, op := range ops {
		op := op
		f := func(a, b int16) bool {
			want, defined := op.ref(a, b)
			if !defined {
				return true
			}
			src := `
GLOBALS 4
DATA 1: ` + itoa(uint16(a)) + ` ` + itoa(uint16(b)) + `
MAIN main
PROC main
  LOAD G+1
  LOAD G+2
  ` + op.mnem + `
  STOR G+0
  EXIT 0
ENDPROC
`
			file, err := tnsasm.Assemble("q", src)
			if err != nil {
				return false
			}
			m := New(file, nil)
			if err := m.Run(100); err != nil || m.Trap != 0 {
				return false
			}
			return int16(m.Word(0)) == want
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", op.mnem, err)
		}
	}
}

func itoa(v uint16) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
