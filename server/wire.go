package server

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"time"

	paradise "paradise"
)

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	// Tenant selects the serving session; empty means "default".
	Tenant string `json:"tenant,omitempty"`
	// SQL is the statement to process (required).
	SQL string `json:"sql"`
	// Module selects the policy module; empty uses the tenant's default.
	Module string `json:"module,omitempty"`
	// TimeoutMs bounds the execution; 0 inherits the server's ceiling.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// ColumnInfo describes one output column on the schema line.
type ColumnInfo struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// Message is one NDJSON line of a query response — exactly one of the
// Type-specific field groups is populated:
//
//	{"type":"schema","columns":[{"name":"x","type":"double"}, ...]}
//	{"type":"row","values":[0.5, "alice", null, ...]}
//	{"type":"stats","rows":12,"raw_bytes":...,"egress_bytes":...,"reduction":...,"sim_ms":...}
//	{"type":"error","code":"policy_violation","message":"...","rule":"...","attributes":[...]}
//
// A successful stream is schema, rows, stats; a stream that dies mid-way
// (cancellation, shutdown, execution failure) ends with an error line
// instead of the stats trailer, so every response is well-formed NDJSON
// with an unambiguous final line. Pre-execution failures skip the stream
// entirely: the response is a non-2xx status whose body is a single error
// Message.
type Message struct {
	Type string `json:"type"`

	// Schema line.
	Columns []ColumnInfo `json:"columns,omitempty"`

	// Row line. Values are JSON-native: null, bool, number, string;
	// timestamps are RFC 3339 strings; non-finite floats are the strings
	// "NaN", "+Inf", "-Inf" (JSON has no spelling for them). The server
	// writes row lines with appendRowLine; the field is for decoding.
	Values []any `json:"values,omitempty"`

	// Stats trailer (the Figure 3 accounting of the drained chain).
	Rows        int         `json:"rows,omitempty"`
	RawBytes    int         `json:"raw_bytes,omitempty"`
	EgressBytes int         `json:"egress_bytes,omitempty"`
	Reduction   float64     `json:"reduction,omitempty"`
	SimMs       float64     `json:"sim_ms,omitempty"`
	Stages      []StageInfo `json:"stages,omitempty"`

	// Error object.
	Code       string   `json:"code,omitempty"`
	Message    string   `json:"message,omitempty"`
	Rule       string   `json:"rule,omitempty"`
	Attributes []string `json:"attributes,omitempty"`
	Module     string   `json:"module,omitempty"`
}

// StatsSnapshot is the body of GET /v1/stats: the serving layer's
// observability surface.
type StatsSnapshot struct {
	PlanCache    paradise.PlanCacheStats `json:"plan_cache"`
	Storage      paradise.StorageStats   `json:"storage"`
	Tenants      int                     `json:"tenants"`
	InFlight     int64                   `json:"in_flight"`
	QueriesTotal int64                   `json:"queries_total"`
	RowsStreamed int64                   `json:"rows_streamed"`
	ErrorsTotal  int64                   `json:"errors_total"`
	Draining     bool                    `json:"draining"`
	UptimeMs     int64                   `json:"uptime_ms"`
}

// StageInfo is one fragment of the stats trailer's per-stage breakdown:
// where the stage ran and its modeled (est_*) versus measured (out_*)
// output, so clients can audit the traffic model against the wire.
type StageInfo struct {
	Stage    int    `json:"stage"`
	Node     string `json:"node"`
	MinLevel string `json:"min_level"`
	Level    string `json:"level"`
	InRows   int    `json:"in_rows"`
	OutRows  int    `json:"out_rows"`
	OutBytes int    `json:"out_bytes"`
	EstRows  int64  `json:"est_rows,omitempty"`
	EstBytes int64  `json:"est_bytes,omitempty"`
}

// schemaMessage renders the schema line for a result relation.
func schemaMessage(rel *paradise.Relation) *Message {
	cols := make([]ColumnInfo, len(rel.Columns))
	for i, c := range rel.Columns {
		cols[i] = ColumnInfo{Name: c.Name, Type: strings.ToLower(c.Type.String())}
	}
	return &Message{Type: "schema", Columns: cols}
}

// appendRowLine appends the row line of r to dst, newline included, byte
// for byte as json.Encoder writes the equivalent Message (Type "row",
// Values: the JSON-native cells), but straight from the typed values:
// no boxing, no reflection.
func appendRowLine(dst []byte, r paradise.Row) []byte {
	if len(r) == 0 { // Values is omitempty
		return append(dst, `{"type":"row"}`+"\n"...)
	}
	dst = append(dst, `{"type":"row","values":[`...)
	for i, v := range r {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendValue(dst, v)
	}
	return append(dst, "]}\n"...)
}

// appendValue appends the JSON spelling of one typed cell: timestamps as
// RFC 3339 strings, non-finite floats as "NaN", "+Inf", "-Inf".
func appendValue(dst []byte, v paradise.Value) []byte {
	switch v.Type() {
	case paradise.TypeBool:
		return strconv.AppendBool(dst, v.AsBool())
	case paradise.TypeInt:
		return strconv.AppendInt(dst, v.AsInt(), 10)
	case paradise.TypeFloat:
		return appendFloat(dst, v.AsFloat())
	case paradise.TypeString:
		return appendString(dst, v.AsString())
	case paradise.TypeTime:
		dst = append(dst, '"')
		dst = v.AsTime().AppendFormat(dst, time.RFC3339Nano)
		return append(dst, '"')
	default: // NULL
		return append(dst, "null"...)
	}
}

// appendFloat spells f as encoding/json's floatEncoder does for float64:
// shortest round-trip digits, exponent form outside [1e-6, 1e21), and
// e-09 shortened to e-9.
func appendFloat(dst []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(dst, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(dst, `"+Inf"`...)
	case math.IsInf(f, -1):
		return append(dst, `"-Inf"`...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendString quotes s. Printable ASCII without '"', '\\' or the HTML
// characters '<', '>', '&' needs no escaping and is copied as is; anything
// else goes through json.Marshal, so HTML escaping, control characters,
// invalid UTF-8 and U+2028/U+2029 come out exactly as encoding/json
// writes them.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// statsMessage renders the trailer from the drained chain's accounting.
func statsMessage(rows int, st *paradise.RunStats) *Message {
	stages := make([]StageInfo, len(st.Assignments))
	for i, a := range st.Assignments {
		stages[i] = StageInfo{
			Stage:    a.Fragment.Stage,
			Node:     a.Node.Name,
			MinLevel: a.Fragment.MinLevel.String(),
			Level:    a.Fragment.EffectiveLevel().String(),
			InRows:   a.InRows,
			OutRows:  a.OutRows,
			OutBytes: a.OutBytes,
			EstRows:  a.Fragment.EstRows,
			EstBytes: a.Fragment.EstBytes,
		}
	}
	return &Message{
		Type:        "stats",
		Rows:        rows,
		RawBytes:    st.RawBytes,
		EgressBytes: st.EgressBytes,
		Reduction:   st.Reduction(),
		SimMs:       float64(st.SimTime) / float64(time.Millisecond),
		Stages:      stages,
	}
}
