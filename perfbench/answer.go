package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"time"

	paradise "paradise"
	"paradise/server"
)

// castagnoli is the CRC table of the row-line digests: order-sensitive,
// hardware-accelerated, so the client spends next to nothing per byte.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digest summarises a sequence of NDJSON row lines: how many, how many
// bytes, and a CRC over their concatenation in order.
type digest struct {
	Rows  int
	Bytes int64
	CRC   uint32
}

func (d *digest) add(line []byte) {
	d.Rows++
	d.Bytes += int64(len(line))
	d.CRC = crc32.Update(d.CRC, castagnoli, line)
}

// stmt is one statement a client can send.
type stmt struct {
	// kind labels the statement's place in the mix.
	kind   string
	tenant string
	sql    string
	// want is the expected answer; set at set-up for fixed statements and
	// at send time for live ones.
	want *answer
}

// answer is what a correct response carries.
type answer struct {
	deny bool
	// rule is the violated policy rule a denial must name.
	rule string
	rows digest
	// egress and stageOut are the Figure 3 accounting of the trailer;
	// checkBytes is false when the store grows under the statement (live
	// windows), whose byte totals are not fixed.
	checkBytes bool
	egress     int
	stageOut   []int
	// raw is the trailer's raw size; 0 skips the check (the store grows
	// under ingest, and raw counts the whole base table).
	raw int
	// linkBytes is the total over all chain links, from the reference run;
	// checked when raw is.
	linkBytes int
	// ref is what the traced replay checks against; nil for denials and
	// live statements.
	ref *reference
}

// reference keeps the parts of a reference outcome the replay compares
// with: the fragment plan, the chain's rows and accounting, and the
// anonymization's quasi-identifiers. Result rows are not kept, so a
// thousand answered statements cost little memory.
type reference struct {
	explain string
	pre     digest
	net     *paradise.RunStats
	anonQI  []string
}

// wireValue is the JSON spelling of one cell under the server's wire
// contract (server.Message): JSON-native values, RFC 3339 timestamps,
// non-finite floats as strings.
func wireValue(v paradise.Value) any {
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
	default:
		return nil
	}
}

// rowsDigest digests rows as the server streams them: one json.Encoder
// line per row message.
func rowsDigest(rows paradise.Rows) (digest, error) {
	var d digest
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var vals []any
	for _, r := range rows {
		vals = vals[:0]
		for _, v := range r {
			vals = append(vals, wireValue(v))
		}
		buf.Reset()
		if err := enc.Encode(&server.Message{Type: "row", Values: vals}); err != nil {
			return d, err
		}
		d.add(buf.Bytes())
	}
	return d, nil
}

// expect computes a statement's answer with Session.Process on a
// reference session configured like the serving tenant.
func expect(ctx context.Context, sess *paradise.Session, sql string) (*answer, error) {
	out, err := sess.Process(ctx, sql)
	if err != nil {
		var v *paradise.PolicyViolation
		if errors.As(err, &v) && v.Rule != "" {
			return &answer{deny: true, rule: v.Rule}, nil
		}
		return nil, fmt.Errorf("reference %q: %w", sql, err)
	}
	d, err := rowsDigest(out.Result.Rows)
	if err != nil {
		return nil, err
	}
	pre := d
	if out.Anon != nil {
		if pre, err = rowsDigest(out.PreAnonymization.Rows); err != nil {
			return nil, err
		}
	}
	net := *out.Net
	net.Result = nil
	ref := &reference{explain: out.Plan.Explain(), pre: pre, net: &net}
	if out.Anon != nil {
		ref.anonQI = out.Anon.QuasiIdentifiers
	}
	a := &answer{rows: d, checkBytes: true, egress: out.Net.EgressBytes, raw: out.Net.RawBytes, ref: ref}
	for _, as := range out.Net.Assignments {
		a.stageOut = append(a.stageOut, as.OutBytes)
	}
	for _, h := range out.Net.Traffic {
		a.linkBytes += h.Bytes
	}
	return a, nil
}

// verdict checks one response against the expected answer and returns ""
// when it is correct, else what was wrong.
func (a *answer) verdict(r *response) string {
	if a.deny {
		switch {
		case r.status != 403:
			return fmt.Sprintf("status %d, want 403", r.status)
		case r.errMsg == nil || r.errMsg.Code != "policy_violation":
			return "403 without a policy_violation body"
		case r.errMsg.Rule != a.rule:
			return fmt.Sprintf("denial names rule %q, want %q", r.errMsg.Rule, a.rule)
		}
		return ""
	}
	switch {
	case r.status != 200:
		return fmt.Sprintf("status %d, want 200", r.status)
	case r.trailer == nil:
		return "stream ended without a stats trailer"
	case r.rows != a.rows:
		return fmt.Sprintf("rows %+v, want %+v", r.rows, a.rows)
	case r.trailer.Rows != a.rows.Rows:
		return fmt.Sprintf("trailer counts %d rows, want %d", r.trailer.Rows, a.rows.Rows)
	}
	if !a.checkBytes {
		return ""
	}
	if r.trailer.EgressBytes != a.egress {
		return fmt.Sprintf("egress %d B, want %d", r.trailer.EgressBytes, a.egress)
	}
	if a.raw != 0 && r.trailer.RawBytes != a.raw {
		return fmt.Sprintf("raw %d B, want %d", r.trailer.RawBytes, a.raw)
	}
	if a.raw != 0 {
		if got, err := trailerLinkBytes(r.trailer); err != nil || got != a.linkBytes {
			return fmt.Sprintf("links ship %d B (%v), want %d", got, err, a.linkBytes)
		}
	}
	if len(r.trailer.Stages) != len(a.stageOut) {
		return fmt.Sprintf("%d stages, want %d", len(r.trailer.Stages), len(a.stageOut))
	}
	for i, s := range r.trailer.Stages {
		if s.OutBytes != a.stageOut[i] {
			return fmt.Sprintf("stage %d ships %d B, want %d", i+1, s.OutBytes, a.stageOut[i])
		}
	}
	return ""
}

// apartment is the chain the server's sessions run on (paradise.Open's
// default).
var apartment = paradise.DefaultApartment()

// trailerLinkBytes totals the bytes a response's chain shipped over the
// apartment's links, from its stats trailer alone, as the network layer's
// placement accounting does: the raw base data travels from the bottom
// node to stage 1's node, each stage's output to the next stage's node,
// and the result on to the cloud.
func trailerLinkBytes(t *server.Message) (int, error) {
	node := map[string]int{}
	for i, n := range apartment.Nodes {
		node[n.Name] = i
	}
	total, pos, ship := 0, 0, t.RawBytes
	for _, s := range t.Stages {
		at, ok := node[s.Node]
		if !ok || at < pos {
			return 0, fmt.Errorf("stage %d on node %q out of chain order", s.Stage, s.Node)
		}
		total += (at - pos) * ship
		pos, ship = at, s.OutBytes
	}
	return total + (apartment.CloudIndex()-pos)*ship, nil
}

// confirmDecoded decodes a response's row lines and compares every cell
// with the reference rows by value — the one-time proof that the digest
// comparison used for every other response compares the right thing.
func confirmDecoded(lines [][]byte, want paradise.Rows) error {
	if len(lines) != len(want) {
		return fmt.Errorf("decoded %d rows, want %d", len(lines), len(want))
	}
	for i, line := range lines {
		var m server.Message
		dec := json.NewDecoder(strings.NewReader(string(line)))
		dec.UseNumber()
		if err := dec.Decode(&m); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		if m.Type != "row" || len(m.Values) != len(want[i]) {
			return fmt.Errorf("row %d: malformed line %s", i, line)
		}
		for j, got := range m.Values {
			if !sameCell(got, want[i][j]) {
				return fmt.Errorf("row %d col %d: got %v, want %v", i, j, got, want[i][j])
			}
		}
	}
	return nil
}

// sameCell compares a decoded JSON cell with a typed reference value.
func sameCell(got any, v paradise.Value) bool {
	switch v.Type() {
	case paradise.TypeBool:
		b, ok := got.(bool)
		return ok && b == v.AsBool()
	case paradise.TypeInt:
		n, ok := got.(json.Number)
		if !ok {
			return false
		}
		i, err := n.Int64()
		return err == nil && i == v.AsInt()
	case paradise.TypeFloat:
		if s, ok := got.(string); ok {
			return s == wireValue(v)
		}
		n, ok := got.(json.Number)
		if !ok {
			return false
		}
		f, err := n.Float64()
		return err == nil && f == v.AsFloat()
	case paradise.TypeString:
		s, ok := got.(string)
		return ok && s == v.AsString()
	case paradise.TypeTime:
		s, ok := got.(string)
		if !ok {
			return false
		}
		t, err := time.Parse(time.RFC3339Nano, s)
		return err == nil && t.Equal(v.AsTime())
	default:
		return got == nil
	}
}
