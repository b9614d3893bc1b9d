package colbatch

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"talign/internal/interval"
	"talign/internal/value"
)

// This file is the byte encoding of a column: the one region layout that
// both on-disk segments (internal/storage) and wire batch frames
// (internal/wire) carry. A column is up to three regions — data, aux and
// a packed validity bitmap — whose shape mirrors the Vec's physical
// storage, so the fixed-width regions decode by aliasing the source
// bytes. Callers own the container (header, offsets, checksum); errors
// returned here describe the region defect and are wrapped by the caller
// with its own corrupt-data sentinel.

// Column region encodings.
const (
	EncInt      = 0 // data: rows × int64
	EncFloat    = 1 // data: rows × float64
	EncStr      = 2 // data: blob; aux: (rows+1) × u32 offsets
	EncBool     = 3 // data: rows × byte (0/1)
	EncInterval = 4 // data: rows × int64 starts; aux: rows × int64 ends
	EncAny      = 5 // data: tagged cells; aux: (rows+1) × u32 offsets
)

// ColRegions locates one encoded column: the encoding tag plus offset
// and byte length of its data, aux and validity-bitmap regions. Offsets
// are relative to the base AppendRegions was given and 8-byte aligned; a
// zero-length bitmap means "no ω rows".
type ColRegions struct {
	Enc                uint8
	DataOff, DataLen   uint64
	AuxOff, AuxLen     uint64
	NullsOff, NullsLen uint64
}

// hostLittleEndian reports whether fixed-width regions can alias (and be
// copied from) little-endian bytes directly.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// AppendRegions appends the column's regions to dst, each padded to
// start 8-byte aligned relative to dst[base], and reports where they
// landed. The encoding is deterministic.
func (v *Vec) AppendRegions(dst []byte, base int) ([]byte, ColRegions) {
	var cr ColRegions
	place := func() uint64 {
		for (len(dst)-base)%8 != 0 {
			dst = append(dst, 0)
		}
		return uint64(len(dst) - base)
	}
	cr.DataOff = place()
	switch v.ph {
	case physInt:
		cr.Enc = EncInt
		dst = AppendInt64s(dst, v.Ints)
	case physFloat:
		cr.Enc = EncFloat
		dst = appendFixed(dst, v.Floats, func(dst []byte, x float64) []byte {
			return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		})
	case physStr:
		cr.Enc = EncStr
		for _, s := range v.Strs {
			dst = append(dst, s...)
		}
	case physBool:
		cr.Enc = EncBool
		for _, x := range v.Bools {
			if x {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	case physInterval:
		cr.Enc = EncInterval
		dst = AppendInt64s(dst, v.IvTs)
	default:
		cr.Enc = EncAny
		for _, x := range v.Any {
			dst = AppendCell(dst, x)
		}
	}
	cr.DataLen = uint64(len(dst)-base) - cr.DataOff

	cr.AuxOff = place()
	switch v.ph {
	case physStr:
		end := uint32(0)
		dst = binary.LittleEndian.AppendUint32(dst, 0)
		for _, s := range v.Strs {
			end += uint32(len(s))
			dst = binary.LittleEndian.AppendUint32(dst, end)
		}
	case physInterval:
		dst = AppendInt64s(dst, v.IvTe)
	case physAny:
		end := uint32(0)
		dst = binary.LittleEndian.AppendUint32(dst, 0)
		for _, x := range v.Any {
			end += uint32(cellSize(x))
			dst = binary.LittleEndian.AppendUint32(dst, end)
		}
	}
	cr.AuxLen = uint64(len(dst)-base) - cr.AuxOff

	cr.NullsOff = place()
	if bm := v.NullBitmap(); bm != nil {
		dst = appendFixed(dst, bm, binary.LittleEndian.AppendUint64)
	}
	cr.NullsLen = uint64(len(dst)-base) - cr.NullsOff
	return dst, cr
}

// AppendInt64s appends xs as little-endian int64s (the TS/TE region
// encoding, and every int64 column region).
func AppendInt64s(dst []byte, xs []int64) []byte {
	return appendFixed(dst, xs, func(dst []byte, x int64) []byte {
		return binary.LittleEndian.AppendUint64(dst, uint64(x))
	})
}

// appendFixed appends 8-byte elements little-endian: one memmove on
// little-endian hosts, put one element at a time elsewhere.
func appendFixed[T int64 | uint64 | float64](dst []byte, xs []T, put func([]byte, T) []byte) []byte {
	if len(xs) == 0 {
		return dst
	}
	if hostLittleEndian {
		return append(dst, unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*8)...)
	}
	for _, x := range xs {
		dst = put(dst, x)
	}
	return dst
}

// DecodeRegions reverses AppendRegions for a column of `rows` rows
// declared as kind. Typed encodings must match the declared kind; boxed
// cells (EncAny) are legal for any declared kind — that is how demoted
// heterogeneous and untyped columns travel. Fixed-width regions and the
// bitmap alias their source bytes when those are 8-byte aligned on a
// little-endian host; strings, bools and boxed cells are copied onto the
// heap. The Vec is read-only and valid only while the source bytes are.
func DecodeRegions(enc uint8, kind value.Kind, rows int, data, aux, nulls []byte) (Vec, error) {
	var zero Vec
	if want := (rows + 63) / 64 * 8; len(nulls)%8 != 0 || len(nulls) > want {
		return zero, fmt.Errorf("bitmap is %d bytes, want a multiple of 8 up to %d", len(nulls), want)
	}
	bm := aliasFixed[uint64](nulls, len(nulls)/8, binary.LittleEndian.Uint64)
	fixed := func(b []byte, width int, what string) error {
		if len(b) != rows*width {
			return fmt.Errorf("%s region is %d bytes, want %d", what, len(b), rows*width)
		}
		return nil
	}
	typed := func(k value.Kind) error {
		if k != kind {
			return fmt.Errorf("declared %s but stored with encoding %d", kind, enc)
		}
		return nil
	}
	switch enc {
	case EncInt:
		if err := typed(value.KindInt); err != nil {
			return zero, err
		}
		if err := fixed(data, 8, "data"); err != nil {
			return zero, err
		}
		return VecFromInts(DecodeInt64s(data, rows), bm), nil
	case EncFloat:
		if err := typed(value.KindFloat); err != nil {
			return zero, err
		}
		if err := fixed(data, 8, "data"); err != nil {
			return zero, err
		}
		xs := aliasFixed[float64](data, rows, func(b []byte) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(b))
		})
		return VecFromFloats(xs, bm), nil
	case EncBool:
		if err := typed(value.KindBool); err != nil {
			return zero, err
		}
		if err := fixed(data, 1, "data"); err != nil {
			return zero, err
		}
		xs := make([]bool, rows)
		for i, b := range data {
			xs[i] = b != 0
		}
		return VecFromBools(xs, bm), nil
	case EncInterval:
		if err := typed(value.KindInterval); err != nil {
			return zero, err
		}
		if err := fixed(data, 8, "data"); err != nil {
			return zero, err
		}
		if err := fixed(aux, 8, "aux"); err != nil {
			return zero, err
		}
		return VecFromIntervals(DecodeInt64s(data, rows), DecodeInt64s(aux, rows), bm), nil
	case EncStr:
		if err := typed(value.KindString); err != nil {
			return zero, err
		}
		if err := checkOffsets(rows, len(data), aux); err != nil {
			return zero, err
		}
		// One heap copy of the blob; the cells are substrings of it.
		blob := string(data)
		xs := make([]string, rows)
		for i := range xs {
			xs[i] = blob[binary.LittleEndian.Uint32(aux[i*4:]):binary.LittleEndian.Uint32(aux[i*4+4:])]
		}
		return VecFromStrs(xs, bm), nil
	case EncAny:
		if err := checkOffsets(rows, len(data), aux); err != nil {
			return zero, err
		}
		xs := make([]value.Value, rows)
		for i := range xs {
			cell := data[binary.LittleEndian.Uint32(aux[i*4:]):binary.LittleEndian.Uint32(aux[i*4+4:])]
			x, n, err := DecodeCell(cell)
			if err == nil && n != len(cell) {
				err = fmt.Errorf("%d trailing bytes", len(cell)-n)
			}
			if err != nil {
				return zero, fmt.Errorf("row %d: %v", i, err)
			}
			xs[i] = x
		}
		return VecFromAny(kind, xs), nil
	}
	return zero, fmt.Errorf("unknown encoding %d", enc)
}

// checkOffsets validates a (rows+1)-entry u32 offset region over a blob
// of dataLen bytes: starts at 0, never decreases, stays in range.
func checkOffsets(rows, dataLen int, aux []byte) error {
	if len(aux) != (rows+1)*4 {
		return fmt.Errorf("offset region is %d bytes, want %d", len(aux), (rows+1)*4)
	}
	prev := binary.LittleEndian.Uint32(aux)
	if prev != 0 {
		return fmt.Errorf("offsets do not start at 0")
	}
	for i := 1; i <= rows; i++ {
		next := binary.LittleEndian.Uint32(aux[i*4:])
		if next < prev || uint64(next) > uint64(dataLen) {
			return fmt.Errorf("offset %d (%d) out of order or out of range", i, next)
		}
		prev = next
	}
	return nil
}

// DecodeInt64s reads n little-endian int64s from b (len(b) >= 8n),
// aliasing b when the host allows zero-copy, else copying.
func DecodeInt64s(b []byte, n int) []int64 {
	return aliasFixed[int64](b, n, func(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) })
}

func aliasFixed[T int64 | uint64 | float64](b []byte, n int, get func([]byte) T) []T {
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = get(b[i*8:])
	}
	return out
}

// AppendCell appends a tagged value cell: the kind byte, then the
// payload (nothing for ω, one byte for bools, 8 for ints and floats, a
// u32 length plus bytes for strings, two int64s for periods).
func AppendCell(dst []byte, v value.Value) []byte {
	dst = append(dst, uint8(v.Kind()))
	switch v.Kind() {
	case value.KindBool:
		if v.Bool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	case value.KindInt:
		return binary.LittleEndian.AppendUint64(dst, uint64(v.Int()))
	case value.KindFloat:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case value.KindString:
		s := v.Str()
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
		return append(dst, s...)
	case value.KindInterval:
		iv := v.Interval()
		dst = binary.LittleEndian.AppendUint64(dst, uint64(iv.Ts))
		return binary.LittleEndian.AppendUint64(dst, uint64(iv.Te))
	}
	return dst
}

// cellSize is len(AppendCell(nil, v)).
func cellSize(v value.Value) int {
	switch v.Kind() {
	case value.KindBool:
		return 2
	case value.KindInt, value.KindFloat:
		return 9
	case value.KindString:
		return 5 + len(v.Str())
	case value.KindInterval:
		return 17
	}
	return 1
}

// DecodeCell reads one tagged value cell from the front of b and
// reports how many bytes it consumed.
func DecodeCell(b []byte) (value.Value, int, error) {
	if len(b) < 1 {
		return value.Null, 0, fmt.Errorf("truncated value cell")
	}
	need := func(n int) error {
		if len(b) < n {
			return fmt.Errorf("truncated %s cell (%d of %d bytes)", value.Kind(b[0]), len(b), n)
		}
		return nil
	}
	switch k := value.Kind(b[0]); k {
	case value.KindNull:
		return value.Null, 1, nil
	case value.KindBool:
		if err := need(2); err != nil {
			return value.Null, 0, err
		}
		return value.NewBool(b[1] != 0), 2, nil
	case value.KindInt:
		if err := need(9); err != nil {
			return value.Null, 0, err
		}
		return value.NewInt(int64(binary.LittleEndian.Uint64(b[1:]))), 9, nil
	case value.KindFloat:
		if err := need(9); err != nil {
			return value.Null, 0, err
		}
		return value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[1:]))), 9, nil
	case value.KindString:
		if err := need(5); err != nil {
			return value.Null, 0, err
		}
		n := uint64(binary.LittleEndian.Uint32(b[1:]))
		if uint64(len(b)-5) < n {
			return value.Null, 0, fmt.Errorf("truncated string cell (%d of %d bytes)", len(b)-5, n)
		}
		return value.NewString(string(b[5 : 5+n])), 5 + int(n), nil
	case value.KindInterval:
		if err := need(17); err != nil {
			return value.Null, 0, err
		}
		ts := int64(binary.LittleEndian.Uint64(b[1:]))
		te := int64(binary.LittleEndian.Uint64(b[9:]))
		return value.NewInterval(interval.Interval{Ts: ts, Te: te}), 17, nil
	default:
		return value.Null, 0, fmt.Errorf("unknown value tag %d", k)
	}
}
