package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"vortex/internal/fleet"
	"vortex/internal/obs"
)

// request is one admitted classification read waiting in the queue.
// resp is buffered (capacity 1) so a batcher worker never blocks on a
// client that walked away. deadline is the request's admission-stamped
// service deadline (zero when RequestTimeout is disabled): once it
// passes, the request is answered with ErrDeadlineExceeded instead of
// being computed.
type request struct {
	x        []float64
	resp     chan response
	deadline time.Time
}

// response is the worker's answer to one request: the classification or
// the typed error (engine failure or blown deadline) that ends it.
type response struct {
	cls Classification
	err error
}

// enqueue admits r to the bounded queue without blocking, stamping the
// request deadline. A full queue returns ErrQueueFull and a draining
// server ErrDraining; on success the request is counted in-flight and
// is guaranteed an answer (possibly the typed deadline error).
func (s *Server) enqueue(r *request) error {
	// Order matters for the drain race: the in-flight Add happens
	// before the draining check, so a request admitted concurrently
	// with Shutdown is either rejected here (Add undone) or visible to
	// the drain's Wait.
	s.inflight.Add(1)
	if s.draining.Load() {
		s.inflight.Done()
		s.rejectedDrn.Add(1)
		s.cRejDrain.Inc()
		return ErrDraining
	}
	if s.cfg.RequestTimeout > 0 {
		r.deadline = time.Now().Add(s.cfg.RequestTimeout)
	}
	select {
	case s.queue <- r:
		s.accepted.Add(1)
		s.cAccepted.Inc()
		s.gQueue.Set(float64(len(s.queue)))
		return nil
	default:
		s.inflight.Done()
		s.rejectedFull.Add(1)
		s.cRejFull.Inc()
		return ErrQueueFull
	}
}

// worker is one batcher goroutine: it blocks for the next request,
// takes whatever else is already queued (up to BatchMax) without
// blocking, and routes the micro-batch into the engine's ReadBatch in
// one call. Batches form only when requests queue behind busy workers;
// an idle server answers each request alone. Workers keep running
// through a drain — they are what flushes the queue — and exit only
// when the drain has emptied it and closed stopWorkers.
func (s *Server) worker() {
	defer s.workersDone.Done()
	batch := make([]*request, 0, s.cfg.BatchMax)
	xs := make([][]float64, 0, s.cfg.BatchMax)
	for {
		select {
		case r := <-s.queue:
			batch = append(batch[:0], r)
			s.fill(&batch)
			s.runBatch(batch, xs[:0])
		case <-s.stopWorkers:
			return
		}
	}
}

// fill grows a started batch up to BatchMax with the requests already
// queued, without blocking. It never waits for stragglers: on Linux an
// idle Go process cannot sleep for less than a millisecond, so any wait
// would cost far more than the fleet read it batches (DESIGN.md §14.1).
func (s *Server) fill(batch *[]*request) {
	for len(*batch) < s.cfg.BatchMax {
		select {
		case r := <-s.queue:
			*batch = append(*batch, r)
		default:
			return
		}
	}
}

// runBatch routes one micro-batch into the engine and fans the answers
// back out to the waiting requests. Deadline propagation happens here:
// requests whose deadline already passed are answered with the typed
// timeout without touching the engine, and the surviving batch hands
// the engine a context bounded by its latest deadline. An engine error
// fails every surviving request in the batch — the fleet router already
// exhausted failover before reporting it.
func (s *Server) runBatch(batch []*request, xs [][]float64) {
	span := obs.StartSpan("serve.batch", "size", len(batch))
	defer span.End()
	// Shed the already-dead: a request that blew its deadline in the
	// queue is answered, not computed.
	now := time.Now()
	live := batch[:0]
	var latest time.Time
	bounded := true
	for _, r := range batch {
		if !r.deadline.IsZero() && now.After(r.deadline) {
			s.answerTimeout(r)
			continue
		}
		live = append(live, r)
		if r.deadline.IsZero() {
			bounded = false
		} else if r.deadline.After(latest) {
			latest = r.deadline
		}
	}
	if len(live) == 0 {
		s.gQueue.Set(float64(len(s.queue)))
		return
	}
	for _, r := range live {
		xs = append(xs, r.x)
	}
	ctx := context.Background()
	if bounded {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, latest)
		defer cancel()
	}
	res, err := s.readBatch(ctx, xs)
	for i, r := range live {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.answerTimeout(r)
			continue
		case err != nil:
			r.resp <- response{err: err}
			s.failed.Add(1)
			s.cFailed.Inc()
		default:
			if res.Degraded {
				s.cDegraded.Inc()
			}
			r.resp <- response{cls: Classification{
				Class:    res.Classes[i],
				Scores:   res.Scores[i],
				Member:   res.Member,
				Degraded: res.Degraded,
			}}
			s.served.Add(1)
			s.cServed.Inc()
		}
		s.inflight.Done()
	}
	s.hBatch.Record(float64(len(live)))
	s.gQueue.Set(float64(len(s.queue)))
}

// readBatch routes one micro-batch into the engine — through the
// context-aware path when the engine supports it — with the worker's
// panic firewall: an engine panic becomes an error answer for the
// batch, never a dead batcher goroutine (which would strand every
// queued request and break the admitted⇒answered contract).
func (s *Server) readBatch(ctx context.Context, xs [][]float64) (res fleet.BatchResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.cWorkerPanics.Inc()
			obs.RecordEvent("panic", "serve.worker", "recovered", p)
			err = fmt.Errorf("serve: engine panic: %v", p)
		}
	}()
	if ce, ok := s.cfg.Engine.(CtxEngine); ok {
		return ce.ReadBatchCtx(ctx, xs)
	}
	return s.cfg.Engine.ReadBatch(xs)
}

// answerTimeout answers one admitted request with the typed deadline
// error and accounts it (TimedOut, serve.deadline_exceeded).
func (s *Server) answerTimeout(r *request) {
	r.resp <- response{err: ErrDeadlineExceeded}
	s.timedOut.Add(1)
	s.cDeadline.Inc()
	s.inflight.Done()
}
