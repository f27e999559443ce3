package schema

import (
	"math"
	"testing"
	"time"
)

// checkWireSize requires the per-vector sum to equal the row sum exactly,
// the 2-byte row prefix included.
func checkWireSize(t *testing.T, name string, cb *ColBatch) {
	t.Helper()
	if got, want := cb.WireSize(), cb.Rows().WireSize(); got != want {
		t.Fatalf("%s: ColBatch.WireSize() = %d, Rows().WireSize() = %d", name, got, want)
	}
}

// TestColBatchWireSize pins the per-vector wire size to the row sum over
// every vector layout: typed, NULL-masked and boxed vectors, empty and
// non-ASCII strings, bools, times, selection subsets and empty batches.
func TestColBatchWireSize(t *testing.T) {
	t0 := time.Date(2016, 3, 15, 12, 0, 0, 0, time.UTC)
	mixed := NewRelation("m", Col("a", TypeInt), Col("n", TypeNull))
	cases := []struct {
		name string
		rel  *Relation
		rows Rows
		sel  []int
	}{
		{"typed all types", pivotRel(), pivotRows()[:2], nil},
		{"null masks", pivotRel(), pivotRows(), nil},
		{"null masks under sel", pivotRel(), pivotRows(), []int{1, 2}},
		{"only nulls selected", pivotRel(), pivotRows(), []int{2}},
		{"empty sel", pivotRel(), pivotRows(), []int{}},
		{"zero rows", pivotRel(), Rows{}, nil},
		{"strings", NewRelation("s", Col("s", TypeString)),
			Rows{{String("")}, {String("ü")}, {String("日本語")}, {Null()}, {String("plain")}}, []int{0, 1, 2, 3}},
		{"bools", NewRelation("b", Col("b", TypeBool)),
			Rows{{Bool(true)}, {Null()}, {Bool(false)}}, nil},
		{"times", NewRelation("t", Col("t", TypeTime)),
			Rows{{Time(t0)}, {Time(time.Time{})}, {Null()}}, []int{0, 2}},
		{"boxed numeric column", NewRelation("x", Col("x", TypeInt)),
			Rows{{Int(1)}, {Float(2.5)}, {String("three")}, {Null()}, {Bool(true)}}, nil},
		{"boxed under sel", NewRelation("x", Col("x", TypeFloat)),
			Rows{{Float(1)}, {String("é")}, {Int(7)}, {Null()}}, []int{1, 3}},
		{"declared null column", mixed,
			Rows{{Int(1), Null()}, {Int(2), String("late")}, {Null(), Null()}}, nil},
		{"special floats", NewRelation("f", Col("f", TypeFloat)),
			Rows{{Float(math.NaN())}, {Float(math.Inf(1))}, {Float(-0.0)}}, nil},
	}
	for _, c := range cases {
		cb := BatchFromRows(c.rel, c.rows)
		cb.Sel = c.sel
		checkWireSize(t, c.name, cb)
	}

	// A zero-column batch (COUNT(*)-style scans) still ships the row prefix.
	checkWireSize(t, "no columns", &ColBatch{Rel: NewRelation("e"), N: 5})
	checkWireSize(t, "no columns under sel", &ColBatch{Rel: NewRelation("e"), N: 5, Sel: []int{0, 4}})

	// Windows of vectors with a NULL mask: the sum covers the window only.
	cb := BatchFromRows(pivotRel(), pivotRows())
	win := &ColBatch{Rel: cb.Rel, N: 2}
	for i := range cb.Vecs {
		win.Vecs = append(win.Vecs, cb.Vecs[i].Window(1, 3))
	}
	checkWireSize(t, "window", win)
}

// FuzzColBatchWireSize builds batches of arbitrary shape from the fuzz
// input — column types, NULLs, values of the wrong type (boxed vectors),
// arbitrary string bytes and a selection mask — and requires the
// per-vector wire size to equal the pivoted rows' wire size.
func FuzzColBatchWireSize(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4}, uint16(0), uint64(0))
	f.Add([]byte{3, 3, 'a', 0xc3, 0xbc, 0, 9, 200, 17}, uint16(0x55), uint64(0xff))
	f.Add([]byte{1, 2, 250, 251, 252, 253, 254, 255, 7, 8}, uint16(3), uint64(1<<63|1))
	f.Add([]byte{}, uint16(1), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, shape uint16, selMask uint64) {
		types := []Type{TypeBool, TypeInt, TypeFloat, TypeString, TypeTime, TypeNull}
		width := int(shape%5) + 1
		if shape&0x100 != 0 {
			width = 0
		}
		cols := make([]Column, width)
		for c := range cols {
			b := byte(c)
			if c < len(data) {
				b = data[c]
			}
			cols[c] = Col(string(rune('a'+c)), types[int(b)%len(types)])
		}
		rel := NewRelation("f", cols...)

		// One row per 3 input bytes (plus a few when width is 0).
		next := func(i int) byte {
			if len(data) == 0 {
				return byte(i)
			}
			return data[i%len(data)]
		}
		nrows := len(data)/3 + int(shape>>9)%4
		if nrows > 64 {
			nrows = 64
		}
		rows := make(Rows, nrows)
		for r := range rows {
			row := make(Row, width)
			for c := range row {
				k := next(r*7 + c*3)
				v := next(r*5 + c + 1)
				typ := rel.Columns[c].Type
				if k%5 == 0 { // a value of some other type: boxes the vector
					typ = types[int(v)%len(types)]
				}
				switch {
				case k%7 == 1:
					row[c] = Null()
				case typ == TypeBool:
					row[c] = Bool(v%2 == 0)
				case typ == TypeInt:
					row[c] = Int(int64(v) - 128)
				case typ == TypeFloat:
					row[c] = Float(float64(v) / 3)
				case typ == TypeString:
					end := int(v) % (len(data) + 1)
					row[c] = String(string(data[:end]))
				case typ == TypeTime:
					row[c] = Time(time.Unix(int64(v)*1000, 0).UTC())
				default:
					row[c] = Null()
				}
			}
			rows[r] = row
		}
		cb := BatchFromRows(rel, rows)
		checkWireSize(t, "all rows", cb)
		if shape&0x200 != 0 || selMask != 0 {
			sel := []int{}
			for i := 0; i < nrows; i++ {
				if selMask&(1<<uint(i)) != 0 {
					sel = append(sel, i)
				}
			}
			cb.Sel = sel
			checkWireSize(t, "selected rows", cb)
		}
	})
}
