package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestShutdownCleanDrain: with nothing in flight, Shutdown returns nil
// immediately and the server refuses further work.
func TestShutdownCleanDrain(t *testing.T) {
	srv, hs, client := newTestServer(t, testStore(t, 100))
	ctx := context.Background()

	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	res, err := client.Query(ctx, QueryRequest{SQL: "SELECT x FROM d"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusServiceUnavailable || res.Err == nil || res.Err.Code != "draining" {
		t.Fatalf("query after drain: status %d err %+v", res.Status, res.Err)
	}
	hres, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d", hres.StatusCode)
	}
}

// TestShutdownMidStreamTruncates is the drain acceptance case: a shutdown
// deadline expiring under an in-flight stream must yield a well-formed
// truncated NDJSON response — every line valid JSON, the last one an error
// object — rather than a hang or a torn line.
func TestShutdownMidStreamTruncates(t *testing.T) {
	store := testStore(t, 200000)
	srv, err := New(Config{Store: store, Tenants: []TenantConfig{{Name: "default"}}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	body, err := json.Marshal(QueryRequest{SQL: "SELECT * FROM d"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Post(hs.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// Read a handful of lines, then stop consuming: TCP backpressure pins
	// the server mid-stream with the cursor open.
	br := bufio.NewReaderSize(resp.Body, 4096)
	var lines []string
	for i := 0; i < 5; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading line %d: %v", i, err)
		}
		lines = append(lines, line)
	}

	shutErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		shutErr <- srv.Shutdown(ctx)
	}()

	// Draining flips before the deadline: health goes 503, new queries are
	// refused while the old stream is still open.
	deadline := time.Now().Add(5 * time.Second)
	for {
		hres, err := hs.Client().Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hres.Body.Close()
		if hres.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	client := &Client{Base: hs.URL, HTTP: hs.Client()}
	res, err := client.Query(context.Background(), QueryRequest{SQL: "SELECT x FROM d"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusServiceUnavailable || res.Err == nil || res.Err.Code != "draining" {
		t.Fatalf("new query during drain: status %d err %+v", res.Status, res.Err)
	}

	// Let the drain deadline expire so the kill switch cancels the stream's
	// context, then resume reading to the end.
	time.Sleep(250 * time.Millisecond)
	for {
		line, err := br.ReadString('\n')
		if len(line) > 0 {
			lines = append(lines, line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	if err := <-shutErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown returned %v, want context.DeadlineExceeded", err)
	}

	// The response is truncated but well formed: schema first, every line a
	// complete JSON object, the final line an error — never a stats trailer,
	// never a torn row.
	if len(lines) >= 200000 {
		t.Fatalf("stream was not truncated: %d lines", len(lines))
	}
	for i, line := range lines {
		var msg Message
		if err := json.Unmarshal([]byte(line), &msg); err != nil {
			t.Fatalf("line %d is not valid JSON: %q: %v", i, line, err)
		}
		switch {
		case i == 0 && msg.Type != "schema":
			t.Fatalf("first line type %q, want schema", msg.Type)
		case i == len(lines)-1:
			if msg.Type != "error" || msg.Code != "canceled" {
				t.Fatalf("final line = %s, want a canceled error object", strings.TrimSpace(line))
			}
		case i > 0 && msg.Type != "row":
			t.Fatalf("line %d type %q, want row", i, msg.Type)
		}
	}
	if !strings.HasSuffix(lines[len(lines)-1], "\n") {
		t.Fatalf("final line not newline-terminated: %q", lines[len(lines)-1])
	}
}

// firstRead signals once its body has been read from.
type firstRead struct {
	io.ReadCloser
	once sync.Once
	read chan struct{}
}

func (b *firstRead) Read(p []byte) (int, error) {
	b.once.Do(func() { close(b.read) })
	return b.ReadCloser.Read(p)
}

// TestShutdownSlowBodyAdmission: a query whose body is still arriving when
// Shutdown starts must not slip past the drain. Either Shutdown waits for
// it, or it is refused with 503; it must never get a 200 after Shutdown
// has reported a clean drain.
func TestShutdownSlowBodyAdmission(t *testing.T) {
	srv, err := New(Config{Store: testStore(t, 100), Tenants: []TenantConfig{{Name: "default"}}})
	if err != nil {
		t.Fatal(err)
	}
	bodyRead := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" {
			r.Body = &firstRead{ReadCloser: r.Body, read: bodyRead}
		}
		srv.ServeHTTP(w, r)
	}))
	defer hs.Close()

	type result struct {
		status int
		body   []byte
		err    error
	}
	pr, pw := io.Pipe()
	defer pw.Close()
	done := make(chan result, 1)
	go func() {
		resp, err := hs.Client().Post(hs.URL+"/v1/query", "application/json", pr)
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		done <- result{resp.StatusCode, body, err}
	}()

	// Half the body, then wait until the handler is reading it: the request
	// is inside handleQuery, past any check made before the body.
	if _, err := io.WriteString(pw, `{"sql":"SELECT x`); err != nil {
		t.Fatal(err)
	}
	<-bodyRead

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	shutFirst := false
	select {
	case err := <-shutDone:
		if err != nil {
			t.Fatalf("Shutdown with nothing admitted returned %v", err)
		}
		shutFirst = true
	case <-time.After(200 * time.Millisecond):
		// Shutdown is waiting, which is only right if it waits for this
		// request to finish.
	}

	if _, err := io.WriteString(pw, ` FROM d"}`); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	switch {
	case res.status == http.StatusServiceUnavailable:
		var msg Message
		if err := json.Unmarshal(res.body, &msg); err != nil || msg.Code != "draining" {
			t.Fatalf("503 body %q, want a draining error", res.body)
		}
	case shutFirst:
		t.Fatalf("status %d after Shutdown reported a clean drain: %q", res.status, res.body)
	case res.status != http.StatusOK || !bytes.Contains(res.body, []byte(`"type":"stats"`)):
		t.Fatalf("admitted query: status %d body %q", res.status, res.body)
	}
	if !shutFirst {
		if err := <-shutDone; err != nil {
			t.Fatalf("Shutdown after the admitted query finished returned %v", err)
		}
	}
}
