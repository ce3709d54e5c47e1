package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"pfg/internal/serve"
)

// session is the one session every server workload drives: the reference
// shape n=512, W=4096, tmfg-dbht with incremental defaults.
const (
	sessionID     = "bench"
	sessionN      = 512
	sessionWindow = 4096
	cutK          = 8
	fillBatch     = 256 // ticks per set-up push; ~2.5 MB of JSON, under the 8 MiB body cap
)

var createBody = fmt.Sprintf(`{"id":%q,"window":%d,"method":"tmfg-dbht","incremental":{}}`, sessionID, sessionWindow)

// pushTimer wraps the server's handler and records a serve.push span around
// each push request of a traced op. The client sets the op before posting;
// one op is outstanding at a time.
type pushTimer struct {
	next http.Handler
	tr   *tracer
	op   atomic.Int64 // op index of the traced op in flight, -1 for none
	span atomic.Int64 // that op's root span
}

func (p *pushTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := int(p.op.Load())
	if op < 0 || r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/push") {
		p.next.ServeHTTP(w, r)
		return
	}
	id := p.tr.begin("serve.push", op, int(p.span.Load()))
	p.next.ServeHTTP(w, r)
	p.tr.end(id)
}

// setOp marks the traced op about to post (op < 0 clears it).
func (p *pushTimer) setOp(op, span int) {
	if p == nil {
		return
	}
	p.span.Store(int64(span))
	p.op.Store(int64(op))
}

// server is a serve.Server behind a loopback listener, with a client that
// keeps to one connection.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	timer  *pushTimer // nil when untraced
	served chan struct{}
}

func startServer(tr *tracer) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:    serve.New(serve.Options{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: oneConn()},
		served: make(chan struct{}),
	}
	var h http.Handler = s.srv.Handler()
	if tr != nil {
		s.timer = &pushTimer{next: h, tr: tr}
		s.timer.op.Store(-1)
		h = s.timer
	}
	s.hs = &http.Server{Handler: h}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	if _, err := s.do(http.MethodPost, "/v1/sessions", []byte(createBody), http.StatusCreated); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// oneConn is a transport that keeps to a single loopback connection.
func oneConn() *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
}

// close drains event streams, stops the listener, then the server, and
// waits for the serving goroutine to return.
func (s *server) close() {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	s.srv.Close()
	<-s.served
	s.client.CloseIdleConnections()
}

// do sends one request and returns the body, failing on any status but want.
func (s *server) do(method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// push posts one pre-encoded push body and returns the landing generation
// after checking that every tick was admitted.
func (s *server) push(body []byte, ticks int) (uint64, error) {
	b, err := s.do(http.MethodPost, "/v1/sessions/"+sessionID+"/push", body, http.StatusOK)
	if err != nil {
		return 0, err
	}
	var pr serve.PushResponse
	if err := json.Unmarshal(b, &pr); err != nil {
		return 0, fmt.Errorf("push response: %w", err)
	}
	if pr.Admitted != ticks {
		return 0, fmt.Errorf("push admitted %d of %d ticks", pr.Admitted, ticks)
	}
	return pr.Generation, nil
}

// fill pushes the window's worth of ticks in fillBatch batches and returns
// the generation reached.
func (s *server) fill(ticks [][]float64) (uint64, error) {
	var gen uint64
	for lo := 0; lo < len(ticks); lo += fillBatch {
		hi := min(lo+fillBatch, len(ticks))
		g, err := s.push(pushBody(ticks[lo:hi]), hi-lo)
		if err != nil {
			return 0, fmt.Errorf("filling the window: %w", err)
		}
		gen = g
	}
	return gen, nil
}

func (s *server) stats() (serve.StatsSnapshot, error) {
	var v serve.StatsSnapshot
	b, err := s.do(http.MethodGet, "/statsz", nil, http.StatusOK)
	if err != nil {
		return v, err
	}
	return v, json.Unmarshal(b, &v)
}

// snapshot fetches the session's current k=8 snapshot body, byte for byte.
func (s *server) snapshot() ([]byte, error) {
	return s.do(http.MethodGet, fmt.Sprintf("/v1/sessions/%s/snapshot?k=%d", sessionID, cutK), nil, http.StatusOK)
}

// statsDelta is the change of the counters the work checks use.
func statsDelta(a, b serve.StatsSnapshot) workCounts {
	return workCounts{
		SnapshotRuns:     b.SnapshotRuns - a.SnapshotRuns,
		IncHits:          b.IncrementalHits - a.IncrementalHits,
		IncFullsDrift:    b.IncrementalFullsDrift - a.IncrementalFullsDrift,
		IncFullsStale:    b.IncrementalFullsStale - a.IncrementalFullsStale,
		IncFullsBoundary: b.IncrementalFullsBoundary - a.IncrementalFullsBoundary,
		IncFullsRepair:   b.IncrementalFullsRepair - a.IncrementalFullsRepair,
		EventsDelta:      b.EventsDelta - a.EventsDelta,
		EventsFull:       b.EventsFull - a.EventsFull,
		EventsDropped:    b.EventsDropped - a.EventsDropped,
		SnapshotRejected: b.SnapshotRejected - a.SnapshotRejected,
	}
}
