package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEnqueueZeroCapacity pins the non-blocking admission contract on
// the degenerate queue: with no buffered slot and no receiver ready,
// enqueue must reject immediately (never block), and with a receiver
// parked on the channel the rendezvous succeeds.
func TestEnqueueZeroCapacity(t *testing.T) {
	s, err := New(Config{Inputs: 4, Engine: &stubEngine{}})
	if err != nil {
		t.Fatal(err)
	}
	// No workers are running (Serve was never called); swap in an
	// unbuffered queue to model capacity zero.
	s.queue = make(chan *request)

	r := &request{x: testInput(1), resp: make(chan response, 1)}
	if err := s.enqueue(r); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("enqueue into receiverless unbuffered queue: %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.RejectedQueueFull != 1 || st.Accepted != 0 {
		t.Fatalf("stats after reject: %+v", st)
	}

	// Park a receiver, then the zero-capacity rendezvous admits.
	got := make(chan *request, 1)
	ready := make(chan struct{})
	go func() {
		close(ready)
		got <- <-s.queue
	}()
	<-ready
	admitted := false
	for i := 0; i < 500 && !admitted; i++ {
		// The receiver's park is asynchronous; retry until the
		// rendezvous lands (bounded, typically first iteration).
		admitted = s.enqueue(r) == nil
		if !admitted {
			time.Sleep(time.Millisecond)
		}
	}
	if !admitted {
		t.Fatal("enqueue never admitted with a parked receiver")
	}
	select {
	case q := <-got:
		if q != r {
			t.Fatal("receiver got a different request")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver never saw the admitted request")
	}
	s.inflight.Done() // stand in for the worker's answer
}

// TestConcurrentSubmitRacingShutdown hammers admission from many
// goroutines while Shutdown lands mid-storm, then checks the books:
// every attempt is exactly one of answered / rejected-draining /
// rejected-full, and every admitted request was answered.
func TestConcurrentSubmitRacingShutdown(t *testing.T) {
	eng := &stubEngine{}
	s, err := New(Config{Inputs: 4, Engine: eng, QueueDepth: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()

	const n = 64
	var wg sync.WaitGroup
	var answered, draining, full atomic.Int64
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, err := s.submit(testInput(i))
			switch {
			case err == nil:
				answered.Add(1)
			case errors.Is(err, ErrDraining):
				draining.Add(1)
			case errors.Is(err, ErrQueueFull):
				full.Add(1)
			default:
				t.Errorf("submit %d: unexpected error %v", i, err)
			}
		}(i)
	}
	close(start)
	time.Sleep(time.Millisecond) // let some submissions land first
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	st := s.Stats()
	if got := answered.Load() + draining.Load() + full.Load(); got != n {
		t.Fatalf("%d attempts accounted, want %d", got, n)
	}
	if st.Accepted != answered.Load() {
		t.Errorf("accepted %d != answered %d: an admitted request was lost or dropped", st.Accepted, answered.Load())
	}
	if st.RejectedDraining != draining.Load() || st.RejectedQueueFull != full.Load() {
		t.Errorf("rejection stats %+v vs observed draining=%d full=%d", st, draining.Load(), full.Load())
	}
	if st.Accepted != st.Served+st.Failed+st.TimedOut {
		t.Errorf("accounting broken: %+v", st)
	}
}

// TestPartialAdmitAccounting pins the HTTP batch partial-admission
// path under queue contention: when admission fails midway through a
// batch, the already-admitted vectors are still answered (never
// abandoned) and the whole request reports the rejection — so the
// books stay balanced.
func TestPartialAdmitAccounting(t *testing.T) {
	// QueueDepth 3 with two fillers parked leaves exactly one free slot:
	// the 4-vector batch admits its first vector, then hits the wall.
	eng := &stubEngine{gate: make(chan struct{})}
	s, addr := startServer(t, Config{
		Inputs: 4, Engine: eng, QueueDepth: 3, Workers: 1, BatchMax: 4,
	})

	// Fill: one request inside the gated engine, then two parked in the
	// queue — sequenced so no filler ever races another for the last
	// slot.
	var fillWg sync.WaitGroup
	filler := func(i int) {
		defer fillWg.Done()
		if _, err := s.submit(testInput(i)); err != nil {
			t.Errorf("filler %d: %v", i, err)
		}
	}
	fillWg.Add(1)
	go filler(0)
	waitFor(t, 5*time.Second, func() bool { return eng.calls.Load() >= 1 })
	for i := 1; i <= 2; i++ {
		fillWg.Add(1)
		go filler(i)
	}
	waitFor(t, 5*time.Second, func() bool { return s.Stats().QueueDepth == 2 })

	// The 4-vector batch admits exactly one vector before the queue
	// fills. The admitted vector must be awaited and served; the
	// response must be the 429.
	respCh := make(chan int, 1)
	go func() {
		raw, _ := json.Marshal(ClassifyRequest{Inputs: [][]float64{
			testInput(4), testInput(5), testInput(6), testInput(7)}})
		resp, err := http.Post("http://"+addr+"/v1/classify", "application/json",
			bytes.NewReader(raw))
		if err != nil {
			t.Error(err)
			respCh <- 0
			return
		}
		resp.Body.Close()
		respCh <- resp.StatusCode
	}()
	// The batch request is fully resolved (rejected) only after its
	// admitted prefix is answered — open the gate so everything drains.
	time.Sleep(10 * time.Millisecond)
	close(eng.gate)
	if code := <-respCh; code != http.StatusTooManyRequests {
		t.Fatalf("partially-admitted batch got %d, want 429", code)
	}
	fillWg.Wait()

	st := s.Stats()
	if st.RejectedQueueFull == 0 {
		t.Error("no queue-full rejection recorded")
	}
	if st.Accepted != 4 {
		t.Errorf("accepted %d, want 4 (three fillers + the batch's admitted prefix)", st.Accepted)
	}
	if st.Accepted != st.Served+st.Failed+st.TimedOut {
		t.Errorf("admitted prefix abandoned: %+v", st)
	}
}
