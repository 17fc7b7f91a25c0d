package digest

import (
	"bytes"
	"math"
	"testing"
)

// The preimage layout is the format's whole contract: 8 little-endian bytes
// per integer and float bit pattern, one byte per bool, a length before every
// string and slice.
func TestEncoderLayout(t *testing.T) {
	var e Encoder
	e.Uint64(0x0102030405060708)
	e.Int(-1)
	e.Float64(1)
	e.Bool(true)
	e.Bool(false)
	e.String("hi")
	e.Float64s([]float64{math.Copysign(0, -1)})
	want := []byte{
		8, 7, 6, 5, 4, 3, 2, 1,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f,
		1,
		0,
		2, 0, 0, 0, 0, 0, 0, 0, 'h', 'i',
		1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80,
	}
	if !bytes.Equal(e.buf, want) {
		t.Fatalf("preimage\n got % x\nwant % x", e.buf, want)
	}
	if h := e.Hex(); len(h) != 64 {
		t.Fatalf("Hex() = %q, want 64 hex characters", h)
	}
}

// Length prefixes keep adjacent variable-length fields from trading bytes,
// and float bit patterns keep values that compare equal apart.
func TestEncoderSeparatesAdjacentAndSignedValues(t *testing.T) {
	sum := func(fill func(e *Encoder)) [32]byte {
		e := New(0)
		fill(e)
		return e.Sum()
	}
	for name, pair := range map[string][2]func(e *Encoder){
		`"ab"+"c" vs "a"+"bc"`: {
			func(e *Encoder) { e.String("ab"); e.String("c") },
			func(e *Encoder) { e.String("a"); e.String("bc") },
		},
		"[1 2]+[3] vs [1]+[2 3]": {
			func(e *Encoder) { e.Float64s([]float64{1, 2}); e.Float64s([]float64{3}) },
			func(e *Encoder) { e.Float64s([]float64{1}); e.Float64s([]float64{2, 3}) },
		},
		"0 vs -0": {
			func(e *Encoder) { e.Float64(0) },
			func(e *Encoder) { e.Float64(math.Copysign(0, -1)) },
		},
		"empty string vs none": {
			func(e *Encoder) { e.String("") },
			func(e *Encoder) {},
		},
	} {
		if sum(pair[0]) == sum(pair[1]) {
			t.Errorf("%s encode alike", name)
		}
	}
}
