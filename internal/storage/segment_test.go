package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"skysql/internal/types"
)

// segHeader is a segment prefix claiming rows x cols.
func segHeader(rows, cols uint32) []byte {
	b := append([]byte{}, segMagic...)
	b = binary.LittleEndian.AppendUint32(b, rows)
	return binary.LittleEndian.AppendUint32(b, cols)
}

// withColumn appends one column header and its payload.
func withColumn(b []byte, enc byte, plen uint64, payload []byte) []byte {
	b = append(b, enc)
	b = binary.LittleEndian.AppendUint64(b, plen)
	return append(b, payload...)
}

// forgedSegments are segments whose length fields lie. Each once crashed
// the decoder or made it allocate hundreds of megabytes before failing.
func forgedSegments() map[string][]byte {
	dict := binary.AppendUvarint(nil, 1<<62)
	str := binary.AppendUvarint([]byte{byte(types.KindString)}, math.MaxUint64)
	return map[string][]byte{
		// int(0xFFFF_FFFF_FFFF_FFFF) == -1 passed the bounds check.
		"payload-length-minus-one": withColumn(segHeader(0, 1), encFloat, math.MaxUint64, nil),
		// make([]string, 1<<62) panicked.
		"dict-length-huge": withColumn(segHeader(0, 1), encDict, uint64(len(dict)), dict),
		// A boxed string length past MaxInt64 wrapped negative.
		"boxed-string-length-max": withColumn(segHeader(1, 1), encBoxed, uint64(len(str)), str),
		// 1M rows x 4 columns allocated 216 MB before failing.
		"header-1m-rows": segHeader(1<<20, 4),
	}
}

// forgedFooters are footers whose length fields lie.
func forgedFooters() map[string][]byte {
	cols := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 1), 1<<20)
	name := binary.AppendUvarint(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 1), 1), math.MaxUint64)
	name = append(name, make([]byte, footerColMin)...)
	return map[string][]byte{
		// 1M columns in an 8-byte footer allocated 88 MB before failing.
		"footer-1m-columns": cols,
		// A column name length past MaxInt64 wrapped negative.
		"footer-name-length-max": name,
	}
}

// validSegment is a small segment touching every column encoding.
func validSegment(t testing.TB) []byte {
	schema := types.NewSchema(
		types.Field{Name: "f", Type: types.KindFloat, Nullable: true},
		types.Field{Name: "i", Type: types.KindInt, Nullable: true},
		types.Field{Name: "s", Type: types.KindString, Nullable: true},
		types.Field{Name: "b", Type: types.KindBool, Nullable: true},
		types.Field{Name: "m", Type: types.KindInt, Nullable: true},
	)
	rows := []types.Row{
		{types.Float(math.Copysign(0, -1)), types.Int(types.MaxExactFloatInt + 1), types.Str("a"), types.Bool(true), types.Int(1)},
		{types.Float(math.NaN()), types.Null, types.Str("ανti"), types.Null, types.Str("x")},
		{types.Null, types.Int(-7), types.Null, types.Bool(false), types.Float(math.Inf(-1))},
	}
	data, _, err := encodeSegment(rows, schema)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// decodeSafely runs decode, recovering a panic, and reports the bytes
// allocated meanwhile.
func decodeSafely(decode func() error) (allocated uint64, panicked any, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	func() {
		defer func() { panicked = recover() }()
		err = decode()
	}()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, panicked, err
}

// TestDecodeRejectsForgedLengths: a segment file is untrusted input. A
// length field that disagrees with the bytes present must come back as a
// corrupt-segment error — never a panic, and never an allocation sized by
// the claim instead of the file.
func TestDecodeRejectsForgedLengths(t *testing.T) {
	const limit = 1 << 20
	check := func(name string, decode func() error) {
		alloc, panicked, err := decodeSafely(decode)
		switch {
		case panicked != nil:
			t.Errorf("%s: panic: %v", name, panicked)
		case err == nil:
			t.Errorf("%s: decoded without error", name)
		case alloc > limit:
			t.Errorf("%s: allocated %d bytes before failing (%v)", name, alloc, err)
		}
	}
	for name, data := range forgedSegments() {
		check(name, func() error { _, err := decodeSegment(data); return err })
	}
	for name, data := range forgedFooters() {
		check(name, func() error { _, err := decodeFooter(data); return err })
	}
}

// FuzzDecodeSegment: any byte string decodes to rows or an error, never a
// panic, and rows that decode survive re-encoding bit-identically. The
// seed corpus in testdata/fuzz holds validSegment and forgedSegments.
func FuzzDecodeSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := decodeSegment(data)
		if err != nil {
			return
		}
		width := int(binary.LittleEndian.Uint32(data[len(segMagic)+4:]))
		fields := make([]types.Field, width)
		for i := range fields {
			fields[i] = types.Field{Name: fmt.Sprintf("c%d", i), Nullable: true}
		}
		again, _, err := encodeSegment(rows, types.NewSchema(fields...))
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := decodeSegment(again)
		if err != nil {
			t.Fatalf("re-encoded segment does not decode: %v", err)
		}
		if err := sameRows(rows, back); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDecodeFooter: any byte string decodes to a footer or an error, never
// a panic, and a footer that decodes re-encodes to bytes that decode to
// the same footer. The seed corpus in testdata/fuzz holds validSegment's
// footer and forgedFooters.
func FuzzDecodeFooter(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, err := decodeFooter(data)
		if err != nil {
			return
		}
		enc := encodeFooter(&ft)
		back, err := decodeFooter(enc)
		if err != nil {
			t.Fatalf("re-encoded footer does not decode: %v", err)
		}
		if again := encodeFooter(&back); !bytes.Equal(enc, again) {
			t.Fatalf("footer round trip drifted:\n%x\n%x", enc, again)
		}
	})
}

// TestValidSegmentRoundTrip: validSegment, the source of the valid fuzz
// seed, re-encodes to the very bytes it was decoded from.
func TestValidSegmentRoundTrip(t *testing.T) {
	data := validSegment(t)
	rows, err := decodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := footerOf(data)
	if err != nil {
		t.Fatal(err)
	}
	fields := make([]types.Field, len(ft.Cols))
	for i, c := range ft.Cols {
		fields[i] = types.Field{Name: c.Name, Type: c.Kind, Nullable: c.Nullable}
	}
	again, _, err := encodeSegment(rows, types.NewSchema(fields...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("valid segment did not round-trip bit-identically")
	}
}
