package storage

// The segment wire format. One segment file (or in-memory page run) is:
//
//	magic "SKYSEG1\x00"
//	uint32 rows | uint32 cols
//	per column: uint8 encoding | uint64 payload length | payload
//	footer payload (binary, self-describing)
//	uint32 footer length | magic "SEGF"
//
// The tail magic + length let a reader load the footer — row count and
// zone maps — without touching a single column page, which is what makes
// footer-fed sketches and pre-decode pruning cheap. All integers are
// little-endian; floats are IEEE-754 bit patterns, so every value (NaN
// payloads, -0, ±Inf, int64 beyond ±2⁵³) round-trips bit-identically.

import (
	"encoding/binary"
	"math"

	"skysql/internal/types"
)

var (
	segMagic  = []byte("SKYSEG1\x00")
	tailMagic = []byte("SEGF")
)

// Column encodings. The encoder picks the dense page matching the
// column's single non-null kind; columns mixing kinds fall back to the
// boxed per-value encoding, mirroring the batch decoder's refusal rules
// (a column the dominance kernel would refuse still stores exactly).
const (
	encBoxed = iota // per value: kind tag + payload
	encFloat        // null bitmap + float64 page
	encInt          // null bitmap + int64 page
	encDict         // intern table + uint32 ids (0 = NULL)
	encBool         // null bitmap + value bitmap
)

// encodeSegment serializes one bounded run of rows plus its footer.
// width is the schema width; short rows pad with NULLs on decode refusal
// — the writer validates width instead, matching catalog.NewTable.
func encodeSegment(rows []types.Row, schema *types.Schema) ([]byte, Footer, error) {
	width := schema.Len()
	footer := Footer{Rows: len(rows), Cols: make([]ColumnStats, width)}
	buf := append([]byte{}, segMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(width))
	for col := 0; col < width; col++ {
		sc := newStatsCollector(schema.Fields[col])
		enc := chooseEncoding(rows, col)
		payload := encodeColumn(rows, col, enc, sc)
		footer.Cols[col] = sc.finish(rows, col)
		buf = append(buf, byte(enc))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
		buf = append(buf, payload...)
	}
	ft := encodeFooter(&footer)
	buf = append(buf, ft...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ft)))
	buf = append(buf, tailMagic...)
	return buf, footer, nil
}

// chooseEncoding scans the column for its non-null kind set: a single
// kind gets its dense page, anything mixed stays boxed.
func chooseEncoding(rows []types.Row, col int) int {
	kind := types.KindNull
	for _, r := range rows {
		if col >= len(r) || r[col].IsNull() {
			continue
		}
		k := r[col].Kind()
		if kind == types.KindNull {
			kind = k
		} else if kind != k {
			return encBoxed
		}
	}
	switch kind {
	case types.KindFloat:
		return encFloat
	case types.KindInt:
		return encInt
	case types.KindString:
		return encDict
	case types.KindBool:
		return encBool
	}
	return encBoxed
}

func encodeColumn(rows []types.Row, col, enc int, sc *statsCollector) []byte {
	var buf []byte
	switch enc {
	case encFloat, encInt, encBool:
		nulls := make([]byte, (len(rows)+7)/8)
		for i, r := range rows {
			if col >= len(r) || r[col].IsNull() {
				nulls[i/8] |= 1 << (i % 8)
			}
		}
		buf = append(buf, nulls...)
	}
	switch enc {
	case encFloat:
		for _, r := range rows {
			v := valueAt(r, col)
			sc.observe(v)
			var bits uint64
			if !v.IsNull() {
				bits = math.Float64bits(v.AsFloat())
			}
			buf = binary.LittleEndian.AppendUint64(buf, bits)
		}
	case encInt:
		for _, r := range rows {
			v := valueAt(r, col)
			sc.observe(v)
			var n int64
			if !v.IsNull() {
				n = v.AsInt()
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
		}
	case encBool:
		vals := make([]byte, (len(rows)+7)/8)
		for i, r := range rows {
			v := valueAt(r, col)
			sc.observe(v)
			if !v.IsNull() && v.AsBool() {
				vals[i/8] |= 1 << (i % 8)
			}
		}
		buf = append(buf, vals...)
	case encDict:
		// Intern table: first-appearance order, id 0 reserved for NULL —
		// the same convention as the batch kernel's DIFF intern tables.
		intern := map[string]uint32{}
		var dict []string
		ids := make([]uint32, len(rows))
		for i, r := range rows {
			v := valueAt(r, col)
			sc.observe(v)
			if v.IsNull() {
				continue
			}
			s := v.AsString()
			id, ok := intern[s]
			if !ok {
				dict = append(dict, s)
				id = uint32(len(dict))
				intern[s] = id
			}
			ids[i] = id
		}
		buf = binary.AppendUvarint(buf, uint64(len(dict)))
		for _, s := range dict {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
		for _, id := range ids {
			buf = binary.LittleEndian.AppendUint32(buf, id)
		}
	default: // encBoxed
		for _, r := range rows {
			v := valueAt(r, col)
			sc.observe(v)
			buf = append(buf, byte(v.Kind()))
			switch v.Kind() {
			case types.KindInt:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v.AsInt()))
			case types.KindFloat:
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.AsFloat()))
			case types.KindString:
				s := v.AsString()
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			case types.KindBool:
				if v.AsBool() {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			}
		}
	}
	return buf
}

func valueAt(r types.Row, col int) types.Value {
	if col >= len(r) {
		return types.Null
	}
	return r[col]
}

// decodeSegment reconstructs the rows of a serialized segment. Values
// come back bit-identical to what was encoded.
func decodeSegment(data []byte) ([]types.Row, error) {
	if len(data) < len(segMagic)+8 || string(data[:len(segMagic)]) != string(segMagic) {
		return nil, errCorrupt("bad magic")
	}
	off := len(segMagic)
	rows := int(binary.LittleEndian.Uint32(data[off:]))
	cols := int(binary.LittleEndian.Uint32(data[off+4:]))
	off += 8
	// Bound the claimed shape by the bytes that follow before allocating:
	// every column needs its 9-byte header and every value at least two
	// bits (a bool page), so a forged header cannot make the decoder
	// allocate more than a small multiple of the segment's own size. A
	// zero-width segment has no bytes to vouch for a row count.
	rest := len(data) - off
	if cols == 0 && rows > 0 || cols > rest/9 || uint64(rows)*uint64(cols) > 4*uint64(rest) {
		return nil, errCorrupt("%d rows x %d columns exceed the %d-byte segment", rows, cols, len(data))
	}
	out := make([]types.Row, rows)
	backing := make([]types.Value, rows*cols)
	for i := range out {
		out[i] = types.Row(backing[i*cols : (i+1)*cols : (i+1)*cols])
	}
	for col := 0; col < cols; col++ {
		if off+9 > len(data) {
			return nil, errCorrupt("truncated column header")
		}
		enc := int(data[off])
		plen := binary.LittleEndian.Uint64(data[off+1:])
		off += 9
		if plen > uint64(len(data)-off) {
			return nil, errCorrupt("truncated column payload")
		}
		end := off + int(plen)
		if err := decodeColumn(data[off:end], enc, rows, cols, col, backing); err != nil {
			return nil, err
		}
		off = end
	}
	return out, nil
}

func decodeColumn(p []byte, enc, rows, cols, col int, backing []types.Value) error {
	set := func(i int, v types.Value) { backing[i*cols+col] = v }
	nullAt := func(nulls []byte, i int) bool { return nulls[i/8]&(1<<(i%8)) != 0 }
	nb := (rows + 7) / 8
	switch enc {
	case encFloat:
		if len(p) != nb+rows*8 {
			return errCorrupt("float page size")
		}
		for i := 0; i < rows; i++ {
			if nullAt(p, i) {
				continue
			}
			set(i, types.Float(math.Float64frombits(binary.LittleEndian.Uint64(p[nb+i*8:]))))
		}
	case encInt:
		if len(p) != nb+rows*8 {
			return errCorrupt("int page size")
		}
		for i := 0; i < rows; i++ {
			if nullAt(p, i) {
				continue
			}
			set(i, types.Int(int64(binary.LittleEndian.Uint64(p[nb+i*8:]))))
		}
	case encBool:
		if len(p) != 2*nb {
			return errCorrupt("bool page size")
		}
		for i := 0; i < rows; i++ {
			if nullAt(p, i) {
				continue
			}
			set(i, types.Bool(p[nb+i/8]&(1<<(i%8)) != 0))
		}
	case encDict:
		// Every entry takes at least its one-byte length prefix.
		dictLen, n := binary.Uvarint(p)
		if n <= 0 || dictLen > uint64(len(p)-n) {
			return errCorrupt("dict length")
		}
		p = p[n:]
		dict := make([]string, dictLen)
		for d := range dict {
			sl, n := binary.Uvarint(p)
			if n <= 0 || sl > uint64(len(p)-n) {
				return errCorrupt("dict entry")
			}
			dict[d] = string(p[n : n+int(sl)])
			p = p[n+int(sl):]
		}
		if len(p) != rows*4 {
			return errCorrupt("dict id page size")
		}
		for i := 0; i < rows; i++ {
			id := binary.LittleEndian.Uint32(p[i*4:])
			if id == 0 {
				continue
			}
			if int(id) > len(dict) {
				return errCorrupt("dict id out of range")
			}
			set(i, types.Str(dict[id-1]))
		}
	case encBoxed:
		for i := 0; i < rows; i++ {
			if len(p) < 1 {
				return errCorrupt("boxed value truncated")
			}
			kind := types.Kind(p[0])
			p = p[1:]
			switch kind {
			case types.KindNull:
			case types.KindInt:
				if len(p) < 8 {
					return errCorrupt("boxed int truncated")
				}
				set(i, types.Int(int64(binary.LittleEndian.Uint64(p))))
				p = p[8:]
			case types.KindFloat:
				if len(p) < 8 {
					return errCorrupt("boxed float truncated")
				}
				set(i, types.Float(math.Float64frombits(binary.LittleEndian.Uint64(p))))
				p = p[8:]
			case types.KindString:
				sl, n := binary.Uvarint(p)
				if n <= 0 || sl > uint64(len(p)-n) {
					return errCorrupt("boxed string truncated")
				}
				set(i, types.Str(string(p[n:n+int(sl)])))
				p = p[n+int(sl):]
			case types.KindBool:
				if len(p) < 1 {
					return errCorrupt("boxed bool truncated")
				}
				set(i, types.Bool(p[0] != 0))
				p = p[1:]
			default:
				return errCorrupt("unknown boxed kind %d", kind)
			}
		}
	default:
		return errCorrupt("unknown encoding %d", enc)
	}
	return nil
}

// encodeFooter serializes the footer with the same binary primitives as
// the pages (JSON cannot carry ±Inf min/max exactly).
func encodeFooter(f *Footer) []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Cols)))
	for i := range f.Cols {
		c := &f.Cols[i]
		buf = binary.AppendUvarint(buf, uint64(len(c.Name)))
		buf = append(buf, c.Name...)
		buf = append(buf, byte(c.Kind))
		if c.Nullable {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.NullCount))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.NaNCount))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.NonNumeric))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Min))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Max))
		buf = append(buf, byte(len(c.Hist)))
		for _, n := range c.Hist {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
		}
	}
	return buf
}

// footerColMin is the smallest encoded footer column: a one-byte name
// length, kind, nullable flag, five 8-byte stats and the histogram length.
const footerColMin = 1 + 2 + 5*8 + 1

func decodeFooter(p []byte) (Footer, error) {
	var f Footer
	if len(p) < 8 {
		return f, errCorrupt("footer truncated")
	}
	f.Rows = int(binary.LittleEndian.Uint32(p))
	cols := int(binary.LittleEndian.Uint32(p[4:]))
	p = p[8:]
	// Each column's stats take at least footerColMin bytes; bound the
	// claimed count before allocating.
	if cols > len(p)/footerColMin {
		return f, errCorrupt("footer claims %d columns in %d bytes", cols, len(p))
	}
	f.Cols = make([]ColumnStats, cols)
	for i := range f.Cols {
		c := &f.Cols[i]
		nl, n := binary.Uvarint(p)
		if n <= 0 || nl > uint64(len(p)-n) {
			return f, errCorrupt("footer column name")
		}
		c.Name = string(p[n : n+int(nl)])
		p = p[n+int(nl):]
		if len(p) < footerColMin-1 {
			return f, errCorrupt("footer column stats")
		}
		c.Kind = types.Kind(p[0])
		c.Nullable = p[1] != 0
		c.NullCount = int64(binary.LittleEndian.Uint64(p[2:]))
		c.NaNCount = int64(binary.LittleEndian.Uint64(p[10:]))
		c.NonNumeric = int64(binary.LittleEndian.Uint64(p[18:]))
		c.Min = math.Float64frombits(binary.LittleEndian.Uint64(p[26:]))
		c.Max = math.Float64frombits(binary.LittleEndian.Uint64(p[34:]))
		hl := int(p[42])
		p = p[43:]
		if hl > 0 {
			if len(p) < hl*8 {
				return f, errCorrupt("footer histogram")
			}
			c.Hist = make([]int64, hl)
			for b := range c.Hist {
				c.Hist[b] = int64(binary.LittleEndian.Uint64(p[b*8:]))
			}
			p = p[hl*8:]
		}
	}
	return f, nil
}

// footerOf extracts and parses the footer from a whole serialized
// segment, using the tail length + magic.
func footerOf(data []byte) (Footer, error) {
	if len(data) < 8 || string(data[len(data)-4:]) != string(tailMagic) {
		return Footer{}, errCorrupt("bad tail magic")
	}
	flen := int(binary.LittleEndian.Uint32(data[len(data)-8:]))
	end := len(data) - 8
	if flen > end {
		return Footer{}, errCorrupt("footer length out of range")
	}
	return decodeFooter(data[end-flen : end])
}
