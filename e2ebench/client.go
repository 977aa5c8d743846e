package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"treesched/internal/service"
)

// clients is the closed-loop client count: one per core of the 2-core
// reference machine, each on one keep-alive connection and sending its
// next request only once the previous answer has been read.
const clients = 2

// server is treeschedd with the daemon's default configuration, served
// by net/http on a loopback listener inside this process.
type server struct {
	svc  *service.Server
	http *http.Server
	url  string
	done chan error
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	svc := service.New(service.Config{})
	s := &server{svc: svc, http: &http.Server{Handler: svc.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// close shuts the HTTP server down, waits for its serve loop to return and
// stops the worker pool.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.svc.Close()
	return err
}

// newClient returns an HTTP client that keeps one connection to the
// server.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// piecesReader reads a request body stored as pieces without joining them.
type piecesReader struct {
	pieces [][]byte
	off    int
}

func (r *piecesReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) && len(r.pieces) > 0 {
		c := copy(p[n:], r.pieces[0][r.off:])
		n += c
		r.off += c
		if r.off == len(r.pieces[0]) {
			r.pieces, r.off = r.pieces[1:], 0
		}
	}
	if n == 0 && len(r.pieces) == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// outcome is one request as the client saw it. Offsets are from the start
// of the phase.
type outcome struct {
	req     int // index into the phase's requests
	start   time.Duration
	latency time.Duration // first byte sent to last byte read
	status  int
	body    []byte
	pcache  string // X-Precompute-Cache header
	err     error
	// Client-side spans, recorded in traced phases only: request written,
	// first response byte, and whether the connection was reused.
	wrote, firstByte time.Duration
	reused           bool
}

// phase is the record of one closed-loop timed phase.
type phase struct {
	t0       time.Time
	outcomes []outcome // in request order
	elapsed  time.Duration
	cpu      time.Duration // process user+system CPU during the phase
	alloc    uint64        // bytes allocated
	numGC    uint32
	// speedup is how much faster the machine ran the reference task around
	// the phase than refNominal: the factor the phase's timings are scaled
	// by.
	speedup float64
}

// send performs one request and reads the whole answer.
func send(c *http.Client, base string, r *request, traced bool, t0 time.Time) outcome {
	out := outcome{}
	var wrote, first time.Time
	var reused bool
	hreq, err := http.NewRequest(http.MethodPost, base+r.path, &piecesReader{pieces: r.pieces})
	if err != nil {
		out.err = err
		return out
	}
	hreq.ContentLength = int64(r.size)
	if r.kind == kindBatch || r.kind == kindForest {
		hreq.Header.Set("Content-Type", "application/x-ndjson")
	} else {
		hreq.Header.Set("Content-Type", "application/json")
	}
	if traced {
		hreq = hreq.WithContext(httptrace.WithClientTrace(hreq.Context(), &httptrace.ClientTrace{
			GotConn:              func(ci httptrace.GotConnInfo) { reused = ci.Reused },
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { first = time.Now() },
		}))
	}
	start := time.Now()
	resp, err := c.Do(hreq)
	if err == nil {
		out.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		out.status = resp.StatusCode
		out.pcache = resp.Header.Get("X-Precompute-Cache")
	}
	end := time.Now()
	out.err = err
	out.start = start.Sub(t0)
	out.latency = end.Sub(start)
	if traced {
		out.reused = reused
		if !wrote.IsZero() {
			out.wrote = wrote.Sub(t0)
		}
		if !first.IsZero() {
			out.firstByte = first.Sub(t0)
		}
	}
	return out
}

// drive runs the closed loop: each client takes the next unsent request
// until the phase has lasted d or the requests are used up. Requests are
// taken in order, so which requests a phase sends depends only on how
// many it sends.
func drive(base string, reqs []request, d time.Duration, traced bool) phase {
	var next atomic.Int64
	per := make([][]outcome, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for time.Since(t0) < d {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				o := send(hc, base, &reqs[i], traced, t0)
				o.req = i
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	ph := phase{t0: t0, elapsed: time.Since(t0)}
	n := int(min(next.Load(), int64(len(reqs))))
	ph.outcomes = make([]outcome, n)
	for _, os := range per {
		for _, o := range os {
			ph.outcomes[o.req] = o
		}
	}
	return ph
}
