// bounds.go is the guard-shape table of the compiler's prove pass: the
// ok* functions are guarded in shapes that leave no bounds check in
// their object code (no findings), the bad* functions look guarded but
// keep one (exactly one finding each). Together they pin what the
// pinned toolchain proves and what it does not.
package nopanic

import (
	"encoding/binary"
	"strings"
)

// Bounds is the fixture root that puts the whole table on the
// untrusted path.
//
//vids:nopanic fixture root for the bounds-dominance table
func Bounds(data []byte, s string, k int) int {
	total := okGuardIndex(data)
	total += okAndGuard(data)
	total += okOrBail(data)
	total += okIndexByte(s)
	total += okRangeLoop(data)
	total += okCountedLoop(data)
	total += okReslice(data)
	total += okMakeCopy(data)
	total += okExactLen(data)
	total += okWindow(data)
	total += okBinary(data)
	total += badMutateAfterGuard(data)
	total += badJoinWiden(data, k)
	total += badWrongPolarity(data)
	total += badBinary(data)
	return total
}

// okGuardIndex: the classic early-return length guard dominates the
// index.
func okGuardIndex(b []byte) int {
	if len(b) < 4 {
		return 0
	}
	return int(b[3])
}

// okAndGuard: && short-circuit carries the bound to the right operand.
func okAndGuard(b []byte) int {
	if len(b) > 2 && b[2] == 7 {
		return 1
	}
	return 0
}

// okOrBail: || in a bail condition proves the negated branch.
func okOrBail(b []byte) int {
	if len(b) == 0 || b[0] != 0x80 {
		return 0
	}
	return int(b[0])
}

// okIndexByte: an IndexByte result bounded on both sides bounds both
// halves of the split (the compiler does not know i < len(s) unless
// the guard says so).
func okIndexByte(s string) int {
	i := strings.IndexByte(s, ':')
	if i < 0 || i >= len(s) {
		return 0
	}
	return len(s[:i]) + len(s[i+1:])
}

// okRangeLoop: a range index is in bounds by construction.
func okRangeLoop(b []byte) int {
	t := 0
	for i := range b {
		t += int(b[i])
	}
	return t
}

// okCountedLoop: the counted loop is an induction variable the
// compiler bounds by its condition.
func okCountedLoop(b []byte) int {
	t := 0
	for i := 0; i < len(b); i++ {
		t += int(b[i])
	}
	return t
}

// okReslice: a re-slice under a guard keeps the residual length.
func okReslice(b []byte) int {
	if len(b) < 8 {
		return 0
	}
	rest := b[4:]
	return int(rest[3])
}

// okMakeCopy: make fixes the length.
func okMakeCopy(b []byte) int {
	buf := make([]byte, 4)
	n := copy(buf, b)
	if n == 0 {
		return 0
	}
	return int(buf[3])
}

// okExactLen: an exact-length equality proves any smaller index.
func okExactLen(b []byte) int {
	if len(b) != 4 {
		return 0
	}
	return int(b[0]) + int(b[3])
}

// okWindow: the advancing-window idiom — each iteration re-proves the
// bound on the slice it is about to consume.
func okWindow(b []byte) int {
	t := 0
	w := b
	for len(w) >= 4 {
		t += int(w[3])
		w = w[4:]
	}
	return t
}

// okBinary: a binary.BigEndian reader inlined behind a guard on the
// residual length of a re-slice.
func okBinary(b []byte) int {
	if len(b) < 8 {
		return 0
	}
	return int(binary.BigEndian.Uint32(b[4:]))
}

// badMutateAfterGuard: the guard is established, then the slice is
// rebound — the old bound must not survive the mutation.
func badMutateAfterGuard(b []byte) int {
	if len(b) < 4 {
		return 0
	}
	b = b[2:]
	return int(b[3]) // want: index may be out of range (the guard predates the rebind)
}

// badJoinWiden: one branch leaves i bounded, the other does not, so
// the index after the join is not.
func badJoinWiden(b []byte, k int) int {
	i := 0
	if k > 0 {
		i = k
	}
	if len(b) == 0 {
		return 0
	}
	return int(b[i]) // want: index may be out of range (i is k on one branch)
}

// badWrongPolarity: the guard bails on the long case, so the fallthrough
// proves only an upper bound on the length.
func badWrongPolarity(b []byte) int {
	if len(b) > 4 {
		return 0
	}
	return int(b[2]) // want: index may be out of range (wrong polarity)
}

// badBinary: an 8-byte reader behind a 4-byte guard.
func badBinary(b []byte) int {
	if len(b) < 4 {
		return 0
	}
	return int(binary.BigEndian.Uint64(b)) // want: the inlined reader's bounds check
}
