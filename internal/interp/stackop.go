package interp

import "tnsr/internal/tns"

// stackOp executes a zero-operand register-stack operation.
func (m *Machine) stackOp(op uint8, pc uint16) TransferKind {
	switch op {
	case tns.OpNOP:
	case tns.OpADD:
		b := m.pop()
		a := m.pop()
		m.addWithFlags(a, b, false)
	case tns.OpSUB:
		b := m.pop()
		a := m.pop()
		m.addWithFlags(a, b, true)
	case tns.OpMPY:
		b := int16(m.pop())
		a := int16(m.pop())
		p := int32(a) * int32(b)
		m.push(uint16(p))
		m.setCC(int16(p))
		m.setV(p < -32768 || p > 32767)
	case tns.OpDIV:
		b := int16(m.pop())
		a := int16(m.pop())
		if b == 0 {
			m.trap(tns.TrapDivZero)
			return TransferNone
		}
		if a == -32768 && b == -1 {
			m.push(uint16(a))
			m.setCC(int16(a))
			m.overflow()
			return TransferNone
		}
		q := a / b
		m.push(uint16(q))
		m.setCC(q)
		m.V = false
	case tns.OpMOD:
		b := int16(m.pop())
		a := int16(m.pop())
		if b == 0 {
			m.trap(tns.TrapDivZero)
			return TransferNone
		}
		r := a % b
		m.push(uint16(r))
		m.setCC(r)
	case tns.OpNEG:
		v := int16(m.top())
		m.setTop(uint16(-v))
		m.setCC(-v)
		m.setV(v == -32768)
	case tns.OpLAND:
		b := m.pop()
		a := m.pop()
		m.push(a & b)
		m.setCC(int16(a & b))
	case tns.OpLOR:
		b := m.pop()
		a := m.pop()
		m.push(a | b)
		m.setCC(int16(a | b))
	case tns.OpXOR:
		b := m.pop()
		a := m.pop()
		m.push(a ^ b)
		m.setCC(int16(a ^ b))
	case tns.OpNOT:
		v := ^m.top()
		m.setTop(v)
		m.setCC(int16(v))
	case tns.OpCMP:
		b := int16(m.pop())
		a := int16(m.pop())
		m.setCC(compare16(a, b))
	case tns.OpUCMP:
		b := m.pop()
		a := m.pop()
		switch {
		case a < b:
			m.CC = -1
		case a > b:
			m.CC = 1
		default:
			m.CC = 0
		}
	case tns.OpDADD:
		b := m.pop32()
		a := m.pop32()
		s := uint64(a) + uint64(b)
		sum := uint32(s)
		m.push32(sum)
		m.K = s > 0xFFFFFFFF
		m.setCC32(int32(sum))
		m.setV((a^sum)&(b^sum)&0x80000000 != 0)
	case tns.OpDSUB:
		b := m.pop32()
		a := m.pop32()
		diff := a - b
		m.push32(diff)
		m.K = a >= b
		m.setCC32(int32(diff))
		m.setV((a^b)&(a^diff)&0x80000000 != 0)
	case tns.OpDNEG:
		v := int32(m.pop32())
		m.push32(uint32(-v))
		m.setCC32(-v)
		m.setV(v == -2147483648)
	case tns.OpDCMP:
		b := int32(m.pop32())
		a := int32(m.pop32())
		switch {
		case a < b:
			m.CC = -1
		case a > b:
			m.CC = 1
		default:
			m.CC = 0
		}
	case tns.OpDTST:
		lo := m.R[m.RP]
		hi := m.R[(m.RP-1)&7]
		m.setCC32(int32(uint32(hi)<<16 | uint32(lo)))
	case tns.OpDUP:
		m.push(m.top())
	case tns.OpDDUP:
		lo := m.R[m.RP]
		hi := m.R[(m.RP-1)&7]
		m.push(hi)
		m.push(lo)
	case tns.OpDEL:
		m.pop()
	case tns.OpDDEL:
		m.pop()
		m.pop()
	case tns.OpEXCH:
		i, j := m.RP, (m.RP-1)&7
		m.R[i], m.R[j] = m.R[j], m.R[i]
	case tns.OpXCAL:
		plabel := m.pop()
		space := m.Space
		if plabel&0x8000 != 0 {
			space = SpaceLib
			plabel &^= 0x8000
		}
		return m.call(space, plabel, pc)
	case tns.OpMOVB:
		m.movb()
	case tns.OpMOVW:
		m.movw()
	case tns.OpCMPB:
		m.cmpb()
	case tns.OpSCNB:
		m.scnb()
	case tns.OpDMPY:
		b := int32(m.pop32())
		a := int32(m.pop32())
		p := int64(a) * int64(b)
		m.push32(uint32(p))
		m.setCC32(int32(p))
		m.setV(p < -2147483648 || p > 2147483647)
	case tns.OpDDIV:
		b := int32(m.pop32())
		a := int32(m.pop32())
		if b == 0 {
			m.trap(tns.TrapDivZero)
			return TransferNone
		}
		if a == -2147483648 && b == -1 {
			m.push32(uint32(a))
			m.setCC32(a)
			m.overflow()
			return TransferNone
		}
		q := a / b
		m.push32(uint32(q))
		m.setCC32(q)
		m.V = false
	case tns.OpSWAB:
		v := m.top()
		v = v<<8 | v>>8
		m.setTop(v)
		m.setCC(int16(v))
	case tns.OpCTOD:
		v := int16(m.pop())
		m.push32(uint32(int32(v)))
	case tns.OpDTOC:
		v := m.pop32()
		lo := uint16(v)
		m.push(lo)
		m.setCC(int16(lo))
		m.setV(int32(v) != int32(int16(lo)))
	default:
		m.trap(tns.TrapBadOp)
	}
	return TransferNone
}

// movb moves bytes between byte-addressed memory. A negative count moves
// |count| bytes right to left (for overlapping moves); a positive count
// moves left to right byte by byte, with the authentic "smear" behaviour on
// overlap. The operands are pushed src, dst, count.
func (m *Machine) movb() {
	count := int16(m.pop())
	dst := m.pop()
	src := m.pop()
	n := int(count)
	if n < 0 {
		n = -n
		for i := n - 1; i >= 0; i-- {
			m.storeByte(dst+uint16(i), uint8(m.loadByte(src+uint16(i))))
		}
	} else {
		for i := 0; i < n; i++ {
			m.storeByte(dst+uint16(i), uint8(m.loadByte(src+uint16(i))))
		}
	}
	m.Prof.LongUnits += int64(n)
}

// movw moves words; operands pushed src, dst, count (word addresses).
func (m *Machine) movw() {
	count := int16(m.pop())
	dst := m.pop()
	src := m.pop()
	n := int(count)
	if n < 0 {
		n = -n
		for i := n - 1; i >= 0; i-- {
			m.store(dst+uint16(i), m.Word(src+uint16(i)))
		}
	} else {
		for i := 0; i < n; i++ {
			m.store(dst+uint16(i), m.Word(src+uint16(i)))
		}
	}
	m.Prof.LongUnits += int64(n)
}

// cmpb compares byte strings; operands pushed a, b, count; CC is the
// relation of string a to string b.
func (m *Machine) cmpb() {
	count := m.pop()
	b := m.pop()
	a := m.pop()
	m.CC = 0
	for i := uint16(0); i < count; i++ {
		av := m.loadByte(a + i)
		bv := m.loadByte(b + i)
		if av != bv {
			if av < bv {
				m.CC = -1
			} else {
				m.CC = 1
			}
			m.Prof.LongUnits += int64(i + 1)
			return
		}
	}
	m.Prof.LongUnits += int64(count)
}

// scnb scans for a byte; operands pushed addr, test, limit. It pushes the
// number of bytes skipped and sets CC to E if the byte was found within the
// limit, NE otherwise.
func (m *Machine) scnb() {
	limit := m.pop()
	test := uint8(m.pop())
	addr := m.pop()
	for i := uint16(0); i < limit; i++ {
		if uint8(m.loadByte(addr+i)) == test {
			m.push(i)
			m.CC = 0
			m.Prof.LongUnits += int64(i + 1)
			return
		}
	}
	m.push(limit)
	m.CC = 1
	m.Prof.LongUnits += int64(limit)
}
