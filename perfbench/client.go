package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"paradise/server"
)

// client is one closed-loop caller: it sends a request, reads the whole
// answer, then sends the next.
type client struct {
	base string
	http *http.Client
	br   *bufio.Reader
	// long accumulates a row line longer than the reader's buffer.
	long []byte
	// keep, when set, collects the row lines of the next response.
	keep bool
}

func newClient(base string) *client {
	return &client{
		base: base,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
		br: bufio.NewReaderSize(nil, 64<<10),
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// response is one answer as the client saw it. Row lines are digested, not
// decoded; only the final line (stats trailer or error) is parsed.
type response struct {
	status  int
	rows    digest
	lines   [][]byte // only when the client was asked to keep them
	trailer *server.Message
	errMsg  *server.Message
	// latency runs from sending the request to reading the final line.
	latency time.Duration
}

var (
	prefixSchema = []byte(`{"type":"schema"`)
	prefixRow    = []byte(`{"type":"row"`)
	prefixStats  = []byte(`{"type":"stats"`)
	prefixError  = []byte(`{"type":"error"`)
)

// query posts one statement and reads the response to its last line.
func (c *client) query(ctx context.Context, st *stmt) (*response, error) {
	body, err := json.Marshal(server.QueryRequest{Tenant: st.tenant, SQL: st.sql})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	r := &response{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		var m server.Message
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			return nil, fmt.Errorf("status %d with unreadable body: %w", resp.StatusCode, err)
		}
		r.errMsg = &m
		r.latency = time.Since(start)
		return r, nil
	}
	c.br.Reset(resp.Body)
	defer c.br.Reset(nil)
	first := true
	for {
		line, err := c.line()
		if err == io.EOF {
			return nil, fmt.Errorf("stream ended without a final line")
		}
		if err != nil {
			return nil, err
		}
		switch {
		case first:
			if !bytes.HasPrefix(line, prefixSchema) {
				return nil, fmt.Errorf("stream does not open with a schema line: %.80s", line)
			}
			first = false
		case bytes.HasPrefix(line, prefixRow):
			r.rows.add(line)
			if c.keep {
				r.lines = append(r.lines, append([]byte(nil), line...))
			}
		case bytes.HasPrefix(line, prefixStats), bytes.HasPrefix(line, prefixError):
			r.latency = time.Since(start)
			var m server.Message
			if err := json.Unmarshal(line, &m); err != nil {
				return nil, fmt.Errorf("malformed final line: %w", err)
			}
			if m.Type == "stats" {
				r.trailer = &m
			} else {
				r.errMsg = &m
			}
			// Drain to EOF so the connection is reused.
			if _, err := io.Copy(io.Discard, c.br); err != nil {
				return nil, err
			}
			return r, nil
		default:
			return nil, fmt.Errorf("unexpected NDJSON line: %.80s", line)
		}
	}
}

// line returns the next newline-terminated line, valid until the next call.
func (c *client) line() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		if err == io.EOF && len(line) > 0 {
			return nil, io.ErrUnexpectedEOF
		}
		return line, err
	}
	c.long = append(c.long[:0], line...)
	for {
		line, err = c.br.ReadSlice('\n')
		c.long = append(c.long, line...)
		if err != bufio.ErrBufferFull {
			if err == io.EOF {
				return nil, io.ErrUnexpectedEOF
			}
			return c.long, err
		}
	}
}
