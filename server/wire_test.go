package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	paradise "paradise"
)

// rowValues and encodeValue are the reference spelling of a row line: each
// cell boxed into its JSON-native value, the whole line reflected through
// json.Encoder as a Message. appendRowLine must match them byte for byte.
func rowValues(r paradise.Row) []any {
	out := make([]any, len(r))
	for i, v := range r {
		out[i] = encodeValue(v)
	}
	return out
}

func encodeValue(v paradise.Value) any {
	switch v.Type() {
	case paradise.TypeBool:
		return v.AsBool()
	case paradise.TypeInt:
		return v.AsInt()
	case paradise.TypeFloat:
		f := v.AsFloat()
		switch {
		case math.IsNaN(f):
			return "NaN"
		case math.IsInf(f, 1):
			return "+Inf"
		case math.IsInf(f, -1):
			return "-Inf"
		}
		return f
	case paradise.TypeString:
		return v.AsString()
	case paradise.TypeTime:
		return v.AsTime().Format(time.RFC3339Nano)
	default: // NULL
		return nil
	}
}

// oracleLine is the row line json.Encoder writes for r.
func oracleLine(t testing.TB, r paradise.Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&Message{Type: "row", Values: rowValues(r)}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The edge corpus of the row-line encoder: the boundaries of encoding/json's
// number and string spelling.
var (
	edgeInts   = []int64{0, 1, -1, math.MinInt64, math.MaxInt64}
	edgeFloats = []float64{
		math.Copysign(0, -1), 0, 1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7, 1e-300,
		1e21, math.Nextafter(1e21, 0), -1e21, 5e-324, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), 0.1, -2.5, 123456789.125,
	}
	edgeStrings = edgeStringCorpus()
	edgeBools   = []bool{true, false}
	edgeTimes   = []time.Time{
		time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC),
		time.Date(2024, 3, 1, 12, 0, 0, 123456789, time.UTC),
		time.Date(2024, 3, 1, 12, 0, 0, 100, time.UTC),
		time.Date(2016, 3, 15, 9, 30, 5, 0, time.FixedZone("CET", 3600)),
		time.Date(2016, 3, 15, 9, 30, 5, 5000, time.FixedZone("", -(5*3600+30*60))),
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", 14*3600)),
	}
)

func edgeStringCorpus() []string {
	out := []string{
		"", "alice", "<", ">", "&", "<>&", `<script>&amp;</script>`, `"`, `\`, `a"b\c`, "\x7f",
		"\xff", "a\xc3", "\xed\xa0\x80", "\u2028", "\u2029", "line\u2028sep",
		"héllo", "日本語", "\U0001F600", "\ufffd",
	}
	for c := 0; c < 0x20; c++ {
		out = append(out, string(rune(c)), "x"+string(rune(c))+"y")
	}
	return out
}

// edgeCells is every corpus value as a typed cell, NULL included.
func edgeCells() []paradise.Value {
	var cells []paradise.Value
	for _, i := range edgeInts {
		cells = append(cells, paradise.Int(i))
	}
	for _, f := range edgeFloats {
		cells = append(cells, paradise.Float(f))
	}
	for _, s := range edgeStrings {
		cells = append(cells, paradise.String(s))
	}
	for _, b := range edgeBools {
		cells = append(cells, paradise.Bool(b))
	}
	for _, tm := range edgeTimes {
		cells = append(cells, paradise.Time(tm))
	}
	return append(cells, paradise.Null())
}

// TestRowLineMatchesEncodingJSON pins appendRowLine to json.Encoder byte
// for byte: every edge cell alone, all of them in one row, and a
// zero-length row (whose Values encoding/json omits).
func TestRowLineMatchesEncodingJSON(t *testing.T) {
	cells := edgeCells()
	rows := []paradise.Row{{}, cells}
	for _, c := range cells {
		rows = append(rows, paradise.Row{c})
	}
	var dst []byte
	for _, r := range rows {
		dst = appendRowLine(dst[:0], r)
		if want := oracleLine(t, r); !bytes.Equal(dst, want) {
			t.Errorf("row %v:\n got %q\nwant %q", r, dst, want)
		}
	}
}

// FuzzRowLine widens the oracle test: a row built from one cell of each
// type, any subset of them, must still spell exactly as json.Encoder does.
// The seeds are the edge corpus, so plain go test runs it.
func FuzzRowLine(f *testing.F) {
	n := max(len(edgeInts), len(edgeFloats), len(edgeStrings), len(edgeTimes))
	for k := 0; k < n; k++ {
		tm := edgeTimes[k%len(edgeTimes)]
		_, off := tm.Zone()
		f.Add(edgeInts[k%len(edgeInts)], edgeFloats[k%len(edgeFloats)], edgeStrings[k%len(edgeStrings)],
			edgeBools[k%len(edgeBools)], tm.Unix(), int64(tm.Nanosecond()), off, uint8(k*37))
	}
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string, b bool, sec, nsec int64, off int, mask uint8) {
		all := []paradise.Value{
			paradise.Int(i), paradise.Float(fl), paradise.String(s), paradise.Bool(b),
			paradise.Time(time.Unix(sec, nsec).In(time.FixedZone("", off))), paradise.Null(),
		}
		var r paradise.Row
		for j, v := range all {
			if mask&(1<<j) != 0 {
				r = append(r, v)
			}
		}
		if got, want := appendRowLine(nil, r), oracleLine(t, r); !bytes.Equal(got, want) {
			t.Fatalf("row %v:\n got %q\nwant %q", r, got, want)
		}
	})
}

// edgeStore holds the edge corpus in a table d, one column per type, each
// column cycling through its corpus (NULLs interleaved).
func edgeStore(t testing.TB) *paradise.Store {
	t.Helper()
	store := paradise.NewStore()
	tab := store.Create(paradise.NewRelation("d",
		paradise.Col("i", paradise.TypeInt),
		paradise.Col("f", paradise.TypeFloat),
		paradise.Col("s", paradise.TypeString),
		paradise.Col("b", paradise.TypeBool),
		paradise.Col("tm", paradise.TypeTime),
	))
	n := len(edgeStrings) + 1
	rows := make(paradise.Rows, 0, n)
	for k := 0; k < n; k++ {
		row := paradise.Row{
			paradise.Int(edgeInts[k%len(edgeInts)]),
			paradise.Float(edgeFloats[k%len(edgeFloats)]),
			paradise.String(edgeStrings[k%len(edgeStrings)]),
			paradise.Bool(edgeBools[k%len(edgeBools)]),
			paradise.Time(edgeTimes[k%len(edgeTimes)]),
		}
		row[k%len(row)] = paradise.Null()
		rows = append(rows, row)
	}
	if err := tab.Append(rows...); err != nil {
		t.Fatal(err)
	}
	return store
}

// postQuery POSTs req to /v1/query and checks for a 200 stream.
func postQuery(t *testing.T, hs *httptest.Server, req QueryRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Post(hs.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("status %d", resp.StatusCode)
	}
	return resp
}

// readLines appends the raw lines left in br, newlines included, to lines.
func readLines(t *testing.T, br *bufio.Reader, lines []string) []string {
	t.Helper()
	for {
		line, err := br.ReadString('\n')
		if len(line) > 0 {
			lines = append(lines, line)
		}
		if err == io.EOF {
			return lines
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWireRowLinesMatchOracle reads the raw /v1/query body, not a decoded
// and re-encoded one: each row line must be exactly the oracle line of the
// matching Session.Process row, so a respelling such as 1e-07 for 1e-7
// fails here.
func TestWireRowLinesMatchOracle(t *testing.T) {
	store := edgeStore(t)
	srv, err := New(Config{Store: store, Tenants: []TenantConfig{{Name: "default"}}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	direct, err := paradise.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT * FROM d"
	want, err := direct.Process(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}

	resp := postQuery(t, hs, QueryRequest{SQL: sql})
	defer resp.Body.Close()
	lines := readLines(t, bufio.NewReader(resp.Body), nil)
	rows := want.Result.Rows
	if len(lines) != len(rows)+2 {
		t.Fatalf("%d lines, want schema + %d rows + stats", len(lines), len(rows))
	}
	for i, r := range rows {
		if got, exp := lines[i+1], oracleLine(t, r); got != string(exp) {
			t.Errorf("row %d:\n got %q\nwant %q", i, got, exp)
		}
	}
	var last Message
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Type != "stats" {
		t.Fatalf("last line %q (%v), want the stats trailer", lines[len(lines)-1], err)
	}
}

// TestTruncatedStreamCountsDeliveredRows: a deadline that expires
// mid-stream ends the response with an error line after whatever rows were
// buffered, every line parses, and rows_streamed counts exactly the row
// lines the client received.
func TestTruncatedStreamCountsDeliveredRows(t *testing.T) {
	srv, err := New(Config{Store: testStore(t, 200000), Tenants: []TenantConfig{{Name: "default"}}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	resp := postQuery(t, hs, QueryRequest{SQL: "SELECT * FROM d", TimeoutMs: 50})
	defer resp.Body.Close()
	// Stop reading after the schema line: backpressure holds the server
	// mid-stream while the 50 ms deadline expires.
	br := bufio.NewReaderSize(resp.Body, 4096)
	schema, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	lines := readLines(t, br, []string{schema})

	rowLines := 0
	for i, line := range lines {
		var msg Message
		if err := json.Unmarshal([]byte(line), &msg); err != nil {
			t.Fatalf("line %d is not valid JSON: %q: %v", i, line, err)
		}
		switch {
		case i == 0:
			if msg.Type != "schema" {
				t.Fatalf("first line type %q, want schema", msg.Type)
			}
		case i == len(lines)-1:
			if msg.Type != "error" || msg.Code != "deadline_exceeded" {
				t.Fatalf("final line = %s, want a deadline_exceeded error", strings.TrimSpace(line))
			}
		case msg.Type != "row":
			t.Fatalf("line %d type %q, want row", i, msg.Type)
		default:
			rowLines++
		}
	}
	if rowLines >= 200000 {
		t.Fatalf("stream was not truncated: %d rows", rowLines)
	}
	if got := srv.Stats().RowsStreamed; got != int64(rowLines) {
		t.Fatalf("rows_streamed = %d, client received %d row lines", got, rowLines)
	}
}
