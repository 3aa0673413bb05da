package machine

import (
	"fmt"
	"reflect"
	"sync"
	"unsafe"
)

// The wire codec for collective payloads. Every element type crossing a
// collective is a flat struct (float64/int slices, pair-semiring paths,
// distmat entry triples) — no internal pointers — so a slice's wire form
// is simply its memory image: n elements of Sizeof(T) bytes each, padding
// included. That keeps the encoded size identical to the bytesOf charge
// the cost model applies, so a network backend moves exactly the bytes
// the model says it does. Both ends must share architecture word size and
// endianness (the rank-per-process backend targets homogeneous clusters,
// like the paper's).

// flatChecked caches the per-type flatness verdict.
var flatChecked sync.Map // reflect.Type -> bool (true = flat)

// assertFlat panics when T contains pointers, maps, slices, strings,
// channels, funcs, or interfaces — anything whose memory image is not its
// wire form. The check runs once per type.
func assertFlat[T any]() {
	var zero T
	t := reflect.TypeOf(zero)
	if t == nil {
		panic("machine: codec element type cannot be an interface")
	}
	if v, ok := flatChecked.Load(t); ok {
		if !v.(bool) {
			panic(fmt.Sprintf("machine: codec element type %v contains pointers", t))
		}
		return
	}
	flat := isFlat(t)
	flatChecked.Store(t, flat)
	if !flat {
		panic(fmt.Sprintf("machine: codec element type %v contains pointers", t))
	}
}

func isFlat(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return isFlat(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !isFlat(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// encodeSlice returns the wire form of s: its raw memory image. The
// result aliases s (zero-copy); callers that buffer it past the next
// mutation of s must copy. Always non-nil, so an encoded empty slice is
// distinguishable from "no payload" (nil).
func encodeSlice[T any](s []T) []byte {
	assertFlat[T]()
	if len(s) == 0 {
		return []byte{}
	}
	sz := int(unsafe.Sizeof(s[0]))
	if sz == 0 {
		return []byte{}
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*sz)
}

// decodeSlice reconstructs a []T from its wire form, copying out of b.
// len(b) must be a multiple of Sizeof(T).
func decodeSlice[T any](b []byte) []T {
	assertFlat[T]()
	var zero T
	sz := int(unsafe.Sizeof(zero))
	if sz == 0 || len(b) == 0 {
		return []T{}
	}
	if len(b)%sz != 0 {
		panic(fmt.Sprintf("machine: codec frame of %d bytes is not a multiple of element size %d", len(b), sz))
	}
	n := len(b) / sz
	out := make([]T, n)
	dst := unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), n*sz)
	copy(dst, b)
	return out
}
