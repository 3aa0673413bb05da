// Round-trip fuzzing for the raw wire codec, over every payload type that
// crosses a collective: scalar slices (float64, int, int64, int32), the
// pair-semiring path structs, and the distmat entry triples wrapping each
// of them. The codec's contract is that a slice's wire form IS its memory
// image, so both directions must be bit-exact — including NaN payloads,
// infinities, and struct padding — and the encoded size must equal the
// modeled bytesOf charge.
package machine

import (
	"bytes"
	"math"
	"testing"
	"unsafe"

	"repro/internal/algebra"
	"repro/internal/sparse"
)

// roundTrip drives one payload type through both codec directions from a
// fuzzed byte image: truncate to a whole number of elements, decode,
// re-encode, and require the identical bytes back (bit-exact, so NaN bit
// patterns and padding bytes survive).
func roundTrip[T any](t *testing.T, raw []byte) {
	t.Helper()
	var zero T
	sz := int(unsafe.Sizeof(zero))
	b := raw[:len(raw)-len(raw)%sz]
	vals := decodeSlice[T](b)
	if len(vals) != len(b)/sz {
		t.Fatalf("%T: decoded %d elements from %d bytes (element size %d)", zero, len(vals), len(b), sz)
	}
	if got := bytesOf[T](len(vals)); got != int64(len(b)) {
		t.Fatalf("%T: bytesOf(%d) = %d, want %d — modeled and actual wire size diverge", zero, len(vals), got, len(b))
	}
	enc := encodeSlice(vals)
	if enc == nil {
		t.Fatalf("%T: EncodeSlice returned nil; empty payloads must stay distinguishable from none", zero)
	}
	if !bytes.Equal(enc, b) {
		t.Fatalf("%T: encode(decode(b)) != b\n got %x\nwant %x", zero, enc, b)
	}
	// Second lap from the re-encoded form: the fixed point is immediate.
	if again := encodeSlice(decodeSlice[T](enc)); !bytes.Equal(again, b) {
		t.Fatalf("%T: second round trip diverged", zero)
	}
}

func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	// Seed with real encoded payloads so the corpus starts on interesting
	// element boundaries: tropical infinities, NaN, negative zero, and a
	// pair entry with asymmetric sides.
	f.Add(append([]byte(nil), encodeSlice([]float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.NaN()})...))
	f.Add(append([]byte(nil), encodeSlice([]algebra.MultPath{algebra.MultPathZero(), {W: 2.5, M: 3}})...))
	f.Add(append([]byte(nil), encodeSlice([]algebra.CentPath{algebra.CentPathZero(), {W: 1, P: 0.5, C: -7}})...))
	f.Add(append([]byte(nil), encodeSlice([]sparse.Entry[algebra.MultPathPair]{
		{I: 0, J: 1, V: algebra.MultPathPair{Old: algebra.MultPathZero(), New: algebra.MultPath{W: 1, M: 2}}},
	})...))
	f.Fuzz(func(t *testing.T, b []byte) {
		roundTrip[float64](t, b)
		roundTrip[int](t, b)
		roundTrip[int64](t, b)
		roundTrip[int32](t, b)
		roundTrip[algebra.MultPath](t, b)
		roundTrip[algebra.CentPath](t, b)
		roundTrip[algebra.WeightPair](t, b)
		roundTrip[algebra.MultPathPair](t, b)
		roundTrip[algebra.CentPathPair](t, b)
		roundTrip[sparse.Entry[float64]](t, b)
		roundTrip[sparse.Entry[algebra.MultPath]](t, b)
		roundTrip[sparse.Entry[algebra.CentPath]](t, b)
		roundTrip[sparse.Entry[algebra.WeightPair]](t, b)
		roundTrip[sparse.Entry[algebra.MultPathPair]](t, b)
		roundTrip[sparse.Entry[algebra.CentPathPair]](t, b)
	})
}

// FuzzCodecValues drives the value→bytes→value direction with arbitrary
// field contents (including NaN-boxed floats reconstructed from raw bits)
// and requires bit-exact reconstruction through every wrapper type.
func FuzzCodecValues(f *testing.F) {
	f.Add(int64(1), uint64(0x3FF8000000000000), int32(2), uint64(0x7FF8000000000001), int64(-7))
	f.Add(int64(0), uint64(0), int32(-1), uint64(0xFFF0000000000000), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, i int64, wBits uint64, j int32, pBits uint64, c int64) {
		w := math.Float64frombits(wBits)
		p := math.Float64frombits(pBits)
		checkValues(t, []float64{w, p})
		checkValues(t, []int64{i, c})
		checkValues(t, []int32{j, int32(i)})
		checkValues(t, []algebra.MultPath{{W: w, M: p}, algebra.MultPathZero()})
		checkValues(t, []algebra.CentPath{{W: w, P: p, C: c}})
		checkValues(t, []algebra.WeightPair{{Old: w, New: p}})
		checkValues(t, []algebra.MultPathPair{{Old: algebra.MultPath{W: w, M: p}, New: algebra.MultPath{W: p, M: w}}})
		checkValues(t, []algebra.CentPathPair{{Old: algebra.CentPath{W: w, P: p, C: c}, New: algebra.CentPathZero()}})
		checkValues(t, []sparse.Entry[algebra.CentPathPair]{
			{I: j, J: int32(i), V: algebra.CentPathPair{Old: algebra.CentPath{W: w, P: p, C: c}}},
		})
	})
}

// checkValues round-trips a concrete slice and compares memory images
// (byte equality subsumes field equality and keeps NaN payloads honest).
func checkValues[T any](t *testing.T, s []T) {
	t.Helper()
	enc := append([]byte(nil), encodeSlice(s)...)
	dec := decodeSlice[T](enc)
	if len(dec) != len(s) {
		t.Fatalf("%T: round trip length %d, want %d", s, len(dec), len(s))
	}
	if !bytes.Equal(encodeSlice(dec), enc) {
		t.Fatalf("%T: round trip not bit-exact", s)
	}
}

// TestDecodeSliceRejectsTornFrame pins the misaligned-frame panic: a frame
// that is not a whole number of elements means a protocol bug upstream and
// must fail loudly, not truncate silently.
func TestDecodeSliceRejectsTornFrame(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DecodeSlice accepted a torn frame")
		}
	}()
	decodeSlice[float64](make([]byte, 7))
}
