// Package serve turns a programmed crossbar fleet into a long-running
// networked inference service: one TCP listener answers both HTTP/JSON
// classification requests and a length-prefixed binary hot path (the
// first four bytes of a connection select the protocol), every request
// flows through one bounded queue with explicit backpressure (HTTP 429 +
// Retry-After when full), and batcher workers coalesce queued requests
// into micro-batches that enter the fleet through the zero-alloc
// ReadBatch path. Graceful drain stops accepting, flushes everything
// already admitted, and reports the served count — an admitted request
// is never dropped by shutdown.
//
// Concurrency model: the fleet router is safe for concurrent use (each
// member serializes its hardware behind one mutex, DESIGN.md §11), so
// any number of batcher workers may call ReadBatch concurrently — the
// server adds no locking of its own around the hardware. The queue is a
// buffered channel; admission (enqueue), the in-flight WaitGroup and
// the serve counters are the only shared state, all lock-free. See
// DESIGN.md §14 for the request lifecycle and the drain state machine.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vortex/internal/fleet"
	"vortex/internal/obs"
)

// Engine is the inference backend the batcher workers route
// micro-batches into. *fleet.Fleet implements it; tests substitute
// stubs to script latency and failures.
type Engine interface {
	// ReadBatch answers a batch of classification reads in one call.
	ReadBatch(xs [][]float64) (fleet.BatchResult, error)
}

// CtxEngine is the optional Engine refinement that accepts a context
// bounding the batch read. When the engine implements it (fleet.Fleet
// does, via ReadBatchCtx), the batcher workers hand it a context
// carrying the batch's latest request deadline, so a fleet read that
// nobody is waiting for anymore stops failing over dead members.
type CtxEngine interface {
	// ReadBatchCtx answers a batch of classification reads, honoring
	// the context between internal failover hops.
	ReadBatchCtx(ctx context.Context, xs [][]float64) (fleet.BatchResult, error)
}

// FleetStatser is the optional Engine refinement that exposes fleet
// availability counters; when the engine implements it the /statz
// endpoint includes the fleet snapshot and /healthz reports the
// degraded-mode bit.
type FleetStatser interface {
	// Stats snapshots the fleet's availability counters.
	Stats() fleet.Stats
}

// Config tunes a Server. Zero fields resolve to the documented
// defaults; Inputs and Engine are required.
type Config struct {
	// Inputs is the logical input dimension every request must carry.
	Inputs int
	// Engine answers the micro-batches (usually a *fleet.Fleet).
	Engine Engine

	// QueueDepth bounds the request queue; an enqueue into a full queue
	// is rejected with 429 (HTTP) or StatusOverloaded (binary) instead
	// of blocking. Default 256.
	QueueDepth int
	// BatchMax caps the size of one micro-batch. Default 32.
	BatchMax int
	// Workers is the number of batcher goroutines pulling from the
	// queue. Default 2.
	Workers int
	// RetryAfter is the client back-off advertised with every
	// backpressure rejection (the HTTP Retry-After header, rounded up
	// to whole seconds, and the binary frame's millisecond field).
	// Default 250ms.
	RetryAfter time.Duration
	// ReadTimeout bounds how long the server waits for one request to
	// finish arriving once it has started: the HTTP request (headers
	// and body) and, on the binary path, the remainder of a frame whose
	// first byte has landed — the anti-slowloris bound. Default 10s.
	ReadTimeout time.Duration
	// WriteTimeout bounds one response write on the binary path (and
	// caps how long a stalled peer can hold a handler mid-flush).
	// Default 10s.
	WriteTimeout time.Duration
	// IdleTimeout bounds how long a connection may sit idle between
	// requests — HTTP keep-alive gaps and the wait for the next binary
	// frame's first byte. Default 2m.
	IdleTimeout time.Duration
	// RequestTimeout is the per-request deadline stamped at admission
	// and propagated through the queue into the engine read: a request
	// that is still queued when its deadline passes is answered with
	// ErrDeadlineExceeded instead of being computed, and the batch that
	// carries it hands the engine a context bounded by the batch's
	// latest deadline. Negative disables the deadline. Default 15s.
	RequestTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.BatchMax == 0 {
		c.BatchMax = 32
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 10 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 15 * time.Second
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Inputs <= 0 {
		return errors.New("serve: non-positive input dimension")
	}
	if c.Engine == nil {
		return errors.New("serve: nil engine")
	}
	if c.QueueDepth < 0 || c.BatchMax < 0 || c.Workers < 0 {
		return errors.New("serve: negative queue depth, batch size or worker count")
	}
	if c.RetryAfter < 0 || c.ReadTimeout < 0 || c.WriteTimeout < 0 || c.IdleTimeout < 0 {
		return errors.New("serve: negative duration")
	}
	return nil
}

// Admission and service errors, surfaced to clients as typed statuses.
var (
	// ErrQueueFull rejects an enqueue into a full request queue; the
	// client should back off RetryAfter and retry.
	ErrQueueFull = errors.New("serve: request queue full")
	// ErrDraining rejects an enqueue after drain began; the server is
	// going away and will not admit new work.
	ErrDraining = errors.New("serve: server draining")
	// ErrDeadlineExceeded answers an admitted request whose
	// RequestTimeout deadline passed before (or while) the engine could
	// compute it — the typed timeout of the admitted⇒answered contract.
	// HTTP surfaces it as 504, the binary path as
	// StatusDeadlineExceeded; the read is idempotent, so retrying is
	// safe.
	ErrDeadlineExceeded = errors.New("serve: request deadline exceeded")
)

// Server is the networked inference service. Build one with New, point
// Serve at a listener, and stop it with Shutdown. All methods are safe
// for concurrent use.
type Server struct {
	cfg Config

	// mu guards the Serve/Shutdown listener handoff: Serve publishes
	// the listeners under it, Shutdown reads them under it, so a
	// Shutdown racing Serve either closes the listener or makes Serve
	// refuse to start — never leaves an orphaned Accept loop.
	mu      sync.Mutex
	ln      net.Listener
	httpLn  *chanListener
	httpSrv *http.Server

	queue       chan *request
	stopWorkers chan struct{}
	workersDone sync.WaitGroup

	// inflight counts admitted-but-unanswered requests: Add on a
	// successful enqueue, Done when the worker delivers the response.
	// Drain waits on it, which is the zero-loss guarantee.
	inflight sync.WaitGroup
	connWg   sync.WaitGroup // running binary-connection handlers

	draining atomic.Bool
	started  atomic.Bool

	connsMu sync.Mutex
	conns   map[net.Conn]struct{} // open binary connections, for drain pokes

	accepted     atomic.Int64
	served       atomic.Int64
	rejectedFull atomic.Int64
	rejectedDrn  atomic.Int64
	failed       atomic.Int64
	timedOut     atomic.Int64

	cAccepted, cServed, cRejFull, cRejDrain, cFailed *obs.Counter
	cDeadline, cConnPanics, cWorkerPanics, cDegraded *obs.Counter
	hHTTP, hBinary, hBatch                           *obs.Histogram
	gQueue, gDraining                                *obs.Gauge
}

// New builds a Server from the configuration (defaults resolved,
// validated). The server owns no listener yet; call Serve.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reg := obs.Default()
	s := &Server{
		cfg:         cfg,
		queue:       make(chan *request, cfg.QueueDepth),
		stopWorkers: make(chan struct{}),
		conns:       map[net.Conn]struct{}{},

		cAccepted:     reg.Counter("serve.accepted"),
		cServed:       reg.Counter("serve.served"),
		cRejFull:      reg.Counter("serve.rejected_queue_full"),
		cRejDrain:     reg.Counter("serve.rejected_draining"),
		cFailed:       reg.Counter("serve.failed"),
		cDeadline:     reg.Counter("serve.deadline_exceeded"),
		cConnPanics:   reg.Counter("serve.conn_panics"),
		cWorkerPanics: reg.Counter("serve.worker_panics"),
		cDegraded:     reg.Counter("serve.degraded_responses"),
		hHTTP:         reg.Histogram("serve.http.latency_ns"),
		hBinary:       reg.Histogram("serve.binary.latency_ns"),
		hBatch:        reg.Histogram("serve.batch.size"),
		gQueue:        reg.Gauge("serve.queue.depth"),
		gDraining:     reg.Gauge("serve.draining"),
	}
	// ReadHeaderTimeout and IdleTimeout are what stop a slow-header or
	// never-talking HTTP client from holding a connection (and its
	// handler goroutine) open forever.
	s.httpSrv = &http.Server{
		Handler:           s.httpHandler(),
		ReadTimeout:       cfg.ReadTimeout,
		ReadHeaderTimeout: cfg.ReadTimeout,
		IdleTimeout:       cfg.IdleTimeout,
	}
	return s, nil
}

// Serve accepts connections on ln until Shutdown closes it, sniffing
// each connection's first four bytes to dispatch it to the binary
// protocol (serve.Magic) or the HTTP server. It blocks for the
// listener's lifetime and returns nil on a drain-initiated close.
func (s *Server) Serve(ln net.Listener) error {
	if s.started.Swap(true) {
		return errors.New("serve: Serve called twice")
	}
	s.mu.Lock()
	if s.draining.Load() {
		// Shutdown won the race: never start serving.
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.httpLn = newChanListener(ln.Addr())
	s.mu.Unlock()
	for i := 0; i < s.cfg.Workers; i++ {
		s.workersDone.Add(1)
		go s.worker()
	}
	httpDone := make(chan error, 1)
	go func() { httpDone <- s.httpSrv.Serve(s.httpLn) }()
	var err error
	for {
		var c net.Conn
		c, err = ln.Accept()
		if err != nil {
			break
		}
		go s.dispatch(c)
	}
	if s.draining.Load() || errors.Is(err, net.ErrClosed) {
		err = nil
	}
	// The HTTP server runs until Shutdown closes its listener; its
	// ErrServerClosed is the clean exit.
	if herr := <-httpDone; herr != nil && !errors.Is(herr, http.ErrServerClosed) && err == nil {
		err = herr
	}
	return err
}

// Addr returns the listener address once Serve has been called, nil
// before.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// dispatch sniffs one accepted connection and hands it to the binary
// handler or the HTTP server. The four sniffed bytes are replayed for
// HTTP, so the dispatch is invisible to the http package. A panic
// anywhere in the per-connection path is isolated: the connection dies,
// the server does not.
func (s *Server) dispatch(c net.Conn) {
	defer s.recoverConn(c)
	var head [4]byte
	c.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	if _, err := io.ReadFull(c, head[:]); err != nil {
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})
	if bytes.Equal(head[:], Magic[:]) {
		s.connWg.Add(1)
		go func() {
			defer s.connWg.Done()
			defer s.recoverConn(c)
			s.handleBinary(c)
		}()
		return
	}
	s.httpLn.push(&peekedConn{Conn: c, pre: head[:]})
}

// recoverConn is the per-connection panic firewall: it swallows a
// handler panic, counts it, records a flight-recorder event and closes
// the connection — one poisoned connection must never take the server
// down.
func (s *Server) recoverConn(c net.Conn) {
	if p := recover(); p != nil {
		s.cConnPanics.Inc()
		obs.RecordEvent("panic", "serve.conn", "recovered", p)
		c.Close()
	}
}

// submit admits one request and waits for its answer — the synchronous
// path shared by the binary handler and single-input HTTP requests.
func (s *Server) submit(x []float64) (Classification, error) {
	r := &request{x: x, resp: make(chan response, 1)}
	if err := s.enqueue(r); err != nil {
		return Classification{}, err
	}
	resp := <-r.resp
	if resp.err != nil {
		return Classification{}, resp.err
	}
	return resp.cls, nil
}

// Shutdown drains the server: stop accepting (listener closed), reject
// new admissions with ErrDraining, wait for every admitted request to
// be answered and every in-flight connection handler to finish, then
// stop the batcher workers. It returns nil when the drain completed
// and the context's error when the deadline cut it short. Admitted
// requests are never dropped by a completed drain.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.Swap(true) {
		return errors.New("serve: Shutdown called twice")
	}
	s.gDraining.Set(1)
	// The draining flag is set before the listeners are read, and Serve
	// publishes them before checking the flag — so either the listener
	// is visible here and closed, or Serve sees the flag and never
	// starts.
	s.mu.Lock()
	ln, httpLn := s.ln, s.httpLn
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// The HTTP server waits for its in-flight handlers; those handlers
	// are waiting on responses, which the still-running workers deliver.
	err := s.httpSrv.Shutdown(ctx)
	// Poke idle binary readers off their blocking reads: the in-flight
	// frame (already read) completes and is answered; the next read
	// fails immediately and the handler exits.
	s.connsMu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.connsMu.Unlock()
	if werr := waitCtx(ctx, &s.connWg); werr != nil && err == nil {
		err = werr
	}
	if werr := waitCtx(ctx, &s.inflight); werr != nil && err == nil {
		err = werr
	}
	close(s.stopWorkers)
	// Bound the worker join too: a worker wedged inside a non-context
	// engine call must not hold Shutdown past its deadline — the drain
	// reports ctx.Err() instead of hanging.
	if werr := waitCtx(ctx, &s.workersDone); werr != nil && err == nil {
		err = werr
	}
	if httpLn != nil {
		httpLn.Close()
	}
	return err
}

// waitCtx waits for wg, bounded by the context.
func waitCtx(ctx context.Context, wg *sync.WaitGroup) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Served returns the number of requests answered successfully so far —
// the count the drain path reports.
func (s *Server) Served() int64 { return s.served.Load() }

// Stats is a point-in-time snapshot of the server's admission and
// service counters.
type Stats struct {
	// Accepted is the number of requests admitted to the queue.
	Accepted int64 `json:"accepted"`
	// Served is the number of requests answered successfully.
	Served int64 `json:"served"`
	// RejectedQueueFull counts backpressure rejections (429/overload).
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	// RejectedDraining counts admissions refused because drain began.
	RejectedDraining int64 `json:"rejected_draining"`
	// Failed counts admitted requests whose batch errored in the engine.
	Failed int64 `json:"failed"`
	// TimedOut counts admitted requests answered with the typed
	// deadline error instead of a computation. Every admitted request
	// lands in exactly one of Served, Failed or TimedOut.
	TimedOut int64 `json:"timed_out"`
	// QueueDepth is the instantaneous queue occupancy.
	QueueDepth int `json:"queue_depth"`
	// Draining reports whether shutdown has begun.
	Draining bool `json:"draining"`
	// Fleet is the engine's availability snapshot when the engine
	// exposes one (FleetStatser), nil otherwise.
	Fleet *fleet.Stats `json:"fleet,omitempty"`
}

// Stats snapshots the server counters (and the fleet's, when exposed).
func (s *Server) Stats() Stats {
	st := Stats{
		Accepted:          s.accepted.Load(),
		Served:            s.served.Load(),
		RejectedQueueFull: s.rejectedFull.Load(),
		RejectedDraining:  s.rejectedDrn.Load(),
		Failed:            s.failed.Load(),
		TimedOut:          s.timedOut.Load(),
		QueueDepth:        len(s.queue),
		Draining:          s.draining.Load(),
	}
	if fs, ok := s.cfg.Engine.(FleetStatser); ok {
		snap := fs.Stats()
		st.Fleet = &snap
	}
	return st
}

// degradedMode reports whether the fleet behind the engine is in
// degraded mode — some member demoted to Degraded, or no member
// Serving at all. Engines that expose no fleet stats are never
// degraded. The bit is wired into /healthz and the X-Vortex-Degraded
// response header; per-read degradation additionally rides every
// Classification's Degraded flag on both protocols.
func (s *Server) degradedMode() bool {
	fs, ok := s.cfg.Engine.(FleetStatser)
	if !ok {
		return false
	}
	st := fs.Stats()
	return st.Degraded > 0 || st.Serving == 0
}

// chanListener adapts the sniffed-connection stream to a net.Listener
// the stdlib HTTP server can Accept from.
type chanListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
	addr net.Addr
}

func newChanListener(addr net.Addr) *chanListener {
	return &chanListener{ch: make(chan net.Conn), done: make(chan struct{}), addr: addr}
}

// push hands a sniffed connection to the HTTP server, closing it when
// the listener is already gone.
func (l *chanListener) push(c net.Conn) {
	select {
	case l.ch <- c:
	case <-l.done:
		c.Close()
	}
}

// Accept implements net.Listener.
func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener.
func (l *chanListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr implements net.Listener.
func (l *chanListener) Addr() net.Addr { return l.addr }

// peekedConn replays the protocol-sniffed bytes ahead of the
// connection's remaining stream.
type peekedConn struct {
	net.Conn
	pre []byte
}

// Read implements net.Conn, draining the sniffed prefix first.
func (p *peekedConn) Read(b []byte) (int, error) {
	if len(p.pre) > 0 {
		n := copy(b, p.pre)
		p.pre = p.pre[n:]
		return n, nil
	}
	return p.Conn.Read(b)
}

// retryAfterSeconds renders the configured back-off as the integral
// seconds value the Retry-After header requires, at least 1.
func (s *Server) retryAfterSeconds() string {
	secs := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}
