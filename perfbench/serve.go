package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vortex/internal/dataset"
	"vortex/internal/fleet"
	"vortex/internal/hw"
	"vortex/internal/obs"
	"vortex/internal/serve"
)

// serveSpec is one vortexd workload: a fleet booted at a scale, served
// in-process on a loopback listener, and driven in a closed loop by
// clientConns() clients speaking one protocol. Its operation is one
// classification request.
type serveSpec struct {
	scale  string
	proto  protocol // the digit sets BuildFleet generates
	inputs int
	binary bool
	// boots is how many services an untraced invocation boots, each at
	// its own seed, and serves for an even share of the window. The
	// set-ups are spread over the whole run and over several fleets, so
	// their median, setup_s, follows neither the host's speed at one
	// moment nor one seed's digit sets.
	boots int
	// sweep is the experiment runner whose layers the traced run also
	// measures, after the server has drained.
	sweep sweepSpec
}

// workloads are the declared workloads; BENCHMARK.json says why each
// exists.
var workloads = map[string]serveSpec{
	"serve_bin":  {scale: "full", proto: protoFull, inputs: 784, binary: true, boots: 7, sweep: sweepMC},
	"serve_json": {scale: "quick", proto: protoQuick, inputs: 49, boots: 60, sweep: sweepTrain},
}

// requestTimeout bounds one client round trip, so a wedged server fails
// the run instead of hanging it.
const requestTimeout = 10 * time.Second

// bootConfig is the fleet a workload serves. It names the analytic
// backend explicitly: vortexd defaults to it, but BootConfig's zero
// Backend is hw.Circuit.
func (spec serveSpec) bootConfig(seed uint64) serve.BootConfig {
	return serve.BootConfig{Scale: spec.scale, Backend: hw.Analytic, Seed: seed}
}

// service is one booted vortexd and its connected clients.
type service struct {
	boot    *serve.Boot
	engine  *timedEngine // nil when the fleet is served unwrapped
	srv     *serve.Server
	ln      *countingListener
	done    chan error // Serve's return value
	clients []client
}

// startService boots the fleet, starts the server and connects the
// clients: everything setup_s covers.
func startService(spec serveSpec, seed uint64, traced bool) (*service, error) {
	boot, err := serve.BuildFleet(spec.bootConfig(seed))
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", spec.scale, err)
	}
	s := &service{boot: boot, done: make(chan error, 1)}
	var eng serve.Engine = boot.Fleet
	if traced {
		s.engine = &timedEngine{fl: boot.Fleet}
		eng = s.engine
	}
	if s.srv, err = serve.New(serve.Config{Inputs: boot.Inputs, Engine: eng}); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.ln = &countingListener{Listener: l}
	go func() { s.done <- s.srv.Serve(s.ln) }()
	addr := l.Addr().String()
	for i := 0; i < clientConns(); i++ {
		c, err := dial(spec, addr)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// stop closes the clients and drains the server.
func (s *service) stop() error {
	for _, c := range s.clients {
		c.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

// tally is the server-side accounting of one or more drained services.
type tally struct {
	st       serve.Stats // counters summed over the services
	conns    int64       // most connections any one server accepted
	drainErr error       // first failed drain
}

// drain stops s and adds its books to the tally.
func (t *tally) drain(s *service) {
	if err := s.stop(); err != nil && t.drainErr == nil {
		t.drainErr = err
	}
	st := s.srv.Stats()
	t.st.Accepted += st.Accepted
	t.st.Served += st.Served
	t.st.Failed += st.Failed
	t.st.TimedOut += st.TimedOut
	t.st.RejectedQueueFull += st.RejectedQueueFull
	t.st.RejectedDraining += st.RejectedDraining
	t.conns = max(t.conns, s.ln.accepted.Load())
}

// loadSet is the held-out set the clients of a fleet booted at seed
// send, from serve.LoadSet as vortexload takes it.
func (spec serveSpec) loadSet(seed uint64) (*dataset.Set, error) {
	set, err := serve.LoadSet(spec.scale, seed)
	if err == nil && set.Features() != spec.inputs {
		err = fmt.Errorf("load set has %d inputs, want %d", set.Features(), spec.inputs)
	}
	return set, err
}

// run measures one serve workload.
func (spec serveSpec) run(ctx context.Context, o options, p pins, r *record) error {
	if o.trace {
		return spec.traced(ctx, o, p, r)
	}
	var l load
	var t tally
	// Each metric is the median over the boots, so a stretch of the run
	// in which the host is slow moves one value, not the result.
	var boots, qps, p50, p90 []float64
	w := o.window() / time.Duration(spec.boots)
	for i := 0; i < spec.boots; i++ {
		seed := repSeed(o.seed, i)
		set, err := spec.loadSet(seed)
		if err != nil {
			return err
		}
		start := time.Now()
		svc, err := startService(spec, seed, false)
		if err != nil {
			return err
		}
		boots = append(boots, time.Since(start).Seconds())
		wl := drive(svc, set, w)
		t.drain(svc)
		qps = append(qps, float64(wl.answered)/wl.elapsed.Seconds())
		p50 = append(p50, median(wl.lat))
		p90 = append(p90, quantile(wl.lat, 0.9))
		l.merge(wl)
	}
	checkServe(r, p.AccuracyTolerance[spec.scale], l, t)
	r.set("setup_s", median(boots))
	r.set("qps", median(qps))
	r.set("p50_us", median(p50))
	r.set("p90_us", median(p90))
	r.Info["p99_us"] = quantile(l.lat, 0.99)
	r.Info["mem_mb"] = peakRSSMB()
	return nil
}

// traced is the traced run: one boot served through the timing engine
// with a trace buffer installed, then the direct layer calls, the
// pinned-seed boot gate and the embedded sweep runner.
func (spec serveSpec) traced(ctx context.Context, o options, p pins, r *record) error {
	set, err := spec.loadSet(o.seed)
	if err != nil {
		return err
	}
	svc, err := startService(spec, o.seed, true)
	if err != nil {
		return err
	}
	tb := obs.NewTraceBuffer(1 << 16)
	r.spans = tb
	before, mem0, c0 := obs.Default().Snapshot(), readMem(), cpuTime()
	obs.SetTracer(tb)
	l := drive(svc, set, o.window())
	obs.SetTracer(nil)
	cores := (cpuTime() - c0).Seconds() / l.elapsed.Seconds()
	d, mem1 := snapDelta{before, obs.Default().Snapshot()}, readMem()
	var t tally
	t.drain(svc)
	checkServe(r, p.AccuracyTolerance[spec.scale], l, t)

	memDelta{mem0, mem1}.report(r)
	r.set("mem_mb", peakRSSMB())
	// The three stages nest per request, so their means add up to the
	// client's mean round trip. The obs histogram's p50 is a bucket
	// midpoint (12.5% resolution) that reads the same on most runs, so
	// the server stage uses its exact mean.
	e := svc.engine
	fleetUs := sum(e.durs) / float64(max(len(e.durs), 1))
	r.set("fleet.batch_us", fleetUs)
	if len(e.durs) > 0 {
		r.set("fleet.batch_size", float64(e.inputs)/float64(len(e.durs)))
	}
	r.set("fleet.util", sum(e.durs)/1e6/l.elapsed.Seconds())
	r.set("fleet.failovers", d.counter("fleet.failovers"))
	r.set("fleet.degraded", d.counter("fleet.degraded_served"))
	serverUs := d.histMean(spec.latencyHist()) / 1e3
	r.set("serve.server_us", serverUs)
	r.set("serve.wait_us", serverUs-fleetUs)
	r.set("serve.net_us", sum(l.lat)/float64(max(len(l.lat), 1))-serverUs)
	r.set("serve.batch_size", d.histMean("serve.batch.size"))
	r.set("serve.batches", d.histCount("span.serve.batch"))
	r.set("serve.accepted", float64(t.st.Accepted))
	r.set("serve.served", float64(t.st.Served))
	r.set("serve.failed", float64(t.st.Failed))
	r.set("serve.timed_out", float64(t.st.TimedOut))
	r.set("serve.rejected", float64(t.st.RejectedQueueFull+t.st.RejectedDraining))
	r.set("p99_us", quantile(l.lat, 0.99))
	r.set("fail_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)))
	r.Info["serve.cores_busy"] = cores

	if err := directLayers(r, spec.proto, spec.inputs, o.seed); err != nil {
		return err
	}
	pinned, err := serve.BuildFleet(spec.bootConfig(p.Seed))
	if err != nil {
		return fmt.Errorf("boot %s at seed %d: %w", spec.scale, p.Seed, err)
	}
	want, ok := p.BootAccuracy[spec.scale]
	r.check("boot_accuracy", ok && math.Abs(pinned.Accuracy-want) <= 1e-9,
		"%s fleet at seed %d: Boot.Accuracy %.6f, pinned %.6f", spec.scale, p.Seed, pinned.Accuracy, want)
	return spec.sweep.layersIn(ctx, o.seed, p, r, tb)
}

// checkServe applies the serve output gates to the traffic and the
// drained servers' books; tol bounds the accuracy difference.
func checkServe(r *record, tol float64, l load, t tally) {
	r.Attempted, r.Failed, r.Conns = l.sent, l.sent-l.answered, t.conns
	acc, bootAcc := 0.0, 0.0
	if l.answered > 0 {
		acc = float64(l.correct) / float64(l.answered)
		bootAcc = l.bootCorrect / float64(l.answered)
	}
	r.Info["accuracy"], r.Info["boot_accuracy"] = acc, bootAcc
	r.check("drain", t.drainErr == nil, "graceful drain: %v", t.drainErr)
	r.check("books", t.st.Accepted == t.st.Served+t.st.Failed+t.st.TimedOut,
		"accepted %d == served %d + failed %d + timed_out %d", t.st.Accepted, t.st.Served, t.st.Failed, t.st.TimedOut)
	r.check("answered", l.sent > 0 && l.answered == l.sent && t.st.Served == l.answered,
		"sent %d, answered %d, server served %d", l.sent, l.answered, t.st.Served)
	r.check("accuracy", math.Abs(acc-bootAcc) <= tol,
		"accuracy %.4f vs the serving fleets' Boot.Accuracy %.4f (tolerance %.3f)", acc, bootAcc, tol)
	r.check("conns", t.conns <= int64(clientConns()),
		"at most %d connections accepted per server, allowed %d", t.conns, clientConns())
	if l.errMsg != "" {
		r.check("errors", false, "first client error: %s", l.errMsg)
	}
}

// latencyHist is the server's own per-request latency histogram for the
// workload's protocol.
func (spec serveSpec) latencyHist() string {
	if spec.binary {
		return "serve.binary.latency_ns"
	}
	return "serve.http.latency_ns"
}

// load is the closed-loop traffic of one or more timed windows.
type load struct {
	lat                     []float64 // round trip in µs per request; +Inf when it failed
	elapsed                 time.Duration
	sent, answered, correct int64
	// bootCorrect is the answers the serving fleets' Boot.Accuracy
	// expects correct: the accuracy gate's reference.
	bootCorrect float64
	errMsg      string // first client error
}

func (l *load) merge(o load) {
	l.lat = append(l.lat, o.lat...)
	l.sent, l.answered, l.correct = l.sent+o.sent, l.answered+o.answered, l.correct+o.correct
	l.bootCorrect += o.bootCorrect
	if l.errMsg == "" {
		l.errMsg = o.errMsg
	}
}

// drive runs one closed-loop window against s: client c sends samples c,
// c+C, c+2C, ... of the set (C clients), each waiting for its reply
// before the next request. Each client sends at least one request and
// stops at the first that would start after the window.
func drive(s *service, set *dataset.Set, window time.Duration) load {
	clients := s.clients
	per := make([]load, len(clients))
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &per[c]
			for i := c; i < len(clients) || time.Now().Before(deadline); i += len(clients) {
				x := set.Samples[i%set.Len()]
				t0 := time.Now()
				cls, err := clients[c].classify(x.Pixels)
				rtt := time.Since(t0)
				l.sent++
				if err != nil {
					l.lat = append(l.lat, math.Inf(1))
					if l.errMsg == "" {
						l.errMsg = err.Error()
					}
					continue
				}
				l.answered++
				l.lat = append(l.lat, float64(rtt.Nanoseconds())/1e3)
				if cls.Class == x.Label {
					l.correct++
				}
			}
		}(c)
	}
	wg.Wait()
	var out load
	for _, l := range per {
		out.merge(l)
	}
	out.elapsed = time.Since(start)
	out.bootCorrect = float64(out.answered) * s.boot.Accuracy
	return out
}

// client is one closed-loop connection to the server.
type client interface {
	classify(x []float64) (serve.Classification, error)
	close()
}

func dial(spec serveSpec, addr string) (client, error) {
	if spec.binary {
		c, err := serve.DialBinary(addr, requestTimeout)
		if err != nil {
			return nil, err
		}
		c.SetTimeout(requestTimeout)
		return binaryClient{c}, nil
	}
	return dialJSON(addr)
}

// binaryClient speaks the binary hot path over one connection.
type binaryClient struct{ c *serve.BinaryClient }

func (b binaryClient) classify(x []float64) (serve.Classification, error) { return b.c.Classify(x) }
func (b binaryClient) close()                                             { b.c.Close() }

// jsonClient speaks POST /v1/classify over one keep-alive connection.
type jsonClient struct {
	tr  *http.Transport
	hc  *http.Client
	url string
}

// dialJSON opens the client's one connection with a /healthz round trip,
// so the timed window starts connected.
func dialJSON(addr string) (*jsonClient, error) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	c := &jsonClient{tr: tr, hc: &http.Client{Transport: tr, Timeout: requestTimeout},
		url: "http://" + addr + "/v1/classify"}
	resp, err := c.hc.Get("http://" + addr + "/healthz")
	if err != nil {
		return nil, err
	}
	finish(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return c, nil
}

func (c *jsonClient) classify(x []float64) (serve.Classification, error) {
	body, err := json.Marshal(serve.ClassifyRequest{Input: x})
	if err != nil {
		return serve.Classification{}, err
	}
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.Classification{}, err
	}
	defer finish(resp)
	if resp.StatusCode != http.StatusOK {
		return serve.Classification{}, fmt.Errorf("classify: status %d", resp.StatusCode)
	}
	var cr serve.ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return serve.Classification{}, err
	}
	if cr.Result == nil {
		return serve.Classification{}, errors.New("classify: response without result")
	}
	return *cr.Result, nil
}

func (c *jsonClient) close() { c.tr.CloseIdleConnections() }

// finish drains and closes a response body, so the keep-alive connection
// is reused instead of replaced.
func finish(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// countingListener counts the connections the server accepts: the check
// that the load never opens more than clientConns() of them.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// timedEngine is the traced run's engine: it hands every micro-batch to
// the fleet, times it and records a span. It implements serve.Engine,
// serve.CtxEngine and serve.FleetStatser like *fleet.Fleet, so the
// server treats it exactly as the fleet.
type timedEngine struct {
	fl *fleet.Fleet

	mu     sync.Mutex
	durs   []float64 // µs per ReadBatchCtx call
	inputs int64     // inputs over those calls
}

func (e *timedEngine) ReadBatch(xs [][]float64) (fleet.BatchResult, error) {
	return e.ReadBatchCtx(context.Background(), xs)
}

func (e *timedEngine) ReadBatchCtx(ctx context.Context, xs [][]float64) (fleet.BatchResult, error) {
	sp := obs.StartSpanFrom(ctx, "bench.fleet.read_batch", "inputs", len(xs))
	start := time.Now()
	res, err := e.fl.ReadBatchCtx(ctx, xs)
	d := time.Since(start)
	sp.End()
	e.mu.Lock()
	e.durs = append(e.durs, float64(d.Nanoseconds())/1e3)
	e.inputs += int64(len(xs))
	e.mu.Unlock()
	return res, err
}

func (e *timedEngine) Stats() fleet.Stats { return e.fl.Stats() }
