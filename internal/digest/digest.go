// Package digest is the fixed binary preimage that content hashes in the
// simulator are taken over: checkpoint digests (machine.State, the fleet
// scheduler's barrier ledger) and the idle-equilibrium memo key.
//
// The encoding is positional and self-delimiting: integers and float64 bit
// patterns are 8 little-endian bytes, a bool is one byte, and every slice and
// string carries its length first, so adjacent variable-length fields cannot
// trade bytes ("ab"+"c" never encodes like "a"+"bc"). Callers append fields in
// declaration order; the format has no field names or tags, so adding,
// removing or reordering a field changes every digest on purpose.
package digest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Encoder appends fields to a preimage buffer. The zero value is ready to
// use; New presizes the buffer.
type Encoder struct {
	buf []byte
}

// New returns an encoder whose buffer holds size bytes before growing.
func New(size int) *Encoder { return &Encoder{buf: make([]byte, 0, size)} }

// Uint64 appends v.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Int appends v as its 64-bit two's-complement pattern.
func (e *Encoder) Int(v int64) { e.Uint64(uint64(v)) }

// Float64 appends v's IEEE-754 bit pattern, so -0 and 0 differ and every
// NaN payload is kept.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Bool appends one byte, 1 for true.
func (e *Encoder) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// String appends len(s) and then its bytes.
func (e *Encoder) String(s string) {
	e.Int(int64(len(s)))
	e.buf = append(e.buf, s...)
}

// Float64s appends len(vs) and then each element.
func (e *Encoder) Float64s(vs []float64) {
	e.Int(int64(len(vs)))
	for _, v := range vs {
		e.Float64(v)
	}
}

// Sum returns the sha256 of everything appended so far.
func (e *Encoder) Sum() [sha256.Size]byte { return sha256.Sum256(e.buf) }

// Hex returns Sum as a 64-character lowercase hex string.
func (e *Encoder) Hex() string {
	sum := e.Sum()
	return hex.EncodeToString(sum[:])
}
