package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vortex/internal/fleet"
)

// slowCtxEngine is an Engine that never answers: it blocks until the
// batch context dies and reports its error, the way a fleet read
// abandoned between failover hops does.
type slowCtxEngine struct {
	stubEngine
}

func (e *slowCtxEngine) ReadBatchCtx(ctx context.Context, xs [][]float64) (fleet.BatchResult, error) {
	e.calls.Add(1)
	<-ctx.Done()
	return fleet.BatchResult{}, fmt.Errorf("slow engine: %w", ctx.Err())
}

// panicEngine panics inside ReadBatchCtx while armed — the worker's
// panic firewall must turn that into an error answer, not a dead
// batcher.
type panicEngine struct {
	stubEngine
	boom atomic.Bool
}

func (e *panicEngine) ReadBatchCtx(ctx context.Context, xs [][]float64) (fleet.BatchResult, error) {
	if e.boom.Load() {
		panic("kaboom")
	}
	return e.stubEngine.ReadBatchCtx(ctx, xs)
}

// TestRequestTimeoutHTTP pins queue-side deadline shedding: a request
// that outwaits RequestTimeout in the queue is answered 504 without
// touching the engine, and lands in Stats.TimedOut.
func TestRequestTimeoutHTTP(t *testing.T) {
	eng := &stubEngine{gate: make(chan struct{})}
	s, addr := startServer(t, Config{
		Inputs: 4, Engine: eng, Workers: 1, BatchMax: 1,
		RequestTimeout: 50 * time.Millisecond,
	})

	// A occupies the sole worker inside the gated engine; its own shed
	// check already passed, so it is served when the gate opens.
	aDone := make(chan int, 1)
	go func() {
		resp, _ := postClassify(t, addr, ClassifyRequest{Input: testInput(1)})
		aDone <- resp.StatusCode
	}()
	waitFor(t, 5*time.Second, func() bool { return eng.calls.Load() >= 1 })

	// B sits in the queue past its deadline.
	bDone := make(chan struct {
		code int
		body string
	}, 1)
	go func() {
		resp, body := postClassify(t, addr, ClassifyRequest{Input: testInput(2)})
		bDone <- struct {
			code int
			body string
		}{resp.StatusCode, string(body)}
	}()
	waitFor(t, 5*time.Second, func() bool { return s.Stats().Accepted >= 2 })
	time.Sleep(80 * time.Millisecond) // let B's 50ms deadline expire
	close(eng.gate)

	if code := <-aDone; code != http.StatusOK {
		t.Errorf("in-engine request got %d, want 200", code)
	}
	b := <-bDone
	if b.code != http.StatusGatewayTimeout {
		t.Fatalf("expired request got %d (%s), want 504", b.code, b.body)
	}
	if !strings.Contains(b.body, "deadline") {
		t.Errorf("504 body %q does not name the deadline", b.body)
	}
	st := s.Stats()
	if st.TimedOut != 1 || st.Served != 1 {
		t.Errorf("stats timed_out=%d served=%d, want 1/1", st.TimedOut, st.Served)
	}
	if st.Accepted != st.Served+st.Failed+st.TimedOut {
		t.Errorf("accounting broken: %+v", st)
	}
}

// TestRequestTimeoutBinary is the binary-protocol face of the same
// shed: the typed answer is StatusDeadlineExceeded and the client's
// RemoteError reports Timeout().
func TestRequestTimeoutBinary(t *testing.T) {
	eng := &stubEngine{gate: make(chan struct{})}
	s, addr := startServer(t, Config{
		Inputs: 4, Engine: eng, Workers: 1, BatchMax: 1,
		RequestTimeout: 50 * time.Millisecond,
	})
	blocker, err := DialBinary(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()
	go blocker.Classify(testInput(1))
	waitFor(t, 5*time.Second, func() bool { return eng.calls.Load() >= 1 })

	victim, err := DialBinary(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	vDone := make(chan error, 1)
	go func() {
		_, err := victim.Classify(testInput(2))
		vDone <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return s.Stats().Accepted >= 2 })
	time.Sleep(80 * time.Millisecond)
	close(eng.gate)

	verr := <-vDone
	var rerr *RemoteError
	if !errors.As(verr, &rerr) || rerr.Status != StatusDeadlineExceeded {
		t.Fatalf("victim err = %v, want RemoteError status %d", verr, StatusDeadlineExceeded)
	}
	if !rerr.Timeout() {
		t.Error("RemoteError.Timeout() = false for a deadline answer")
	}
	// The typed answer keeps the connection in sync: the same conn
	// serves a normal request afterwards.
	if _, err := victim.Classify(testInput(3)); err != nil {
		t.Errorf("conn dead after typed timeout: %v", err)
	}
}

// TestCtxEngineDeadline pins in-engine deadline propagation: an engine
// that blocks sees its batch context expire at the latest request
// deadline, and the requests get the typed timeout.
func TestCtxEngineDeadline(t *testing.T) {
	eng := &slowCtxEngine{}
	s, addr := startServer(t, Config{
		Inputs: 4, Engine: eng, Workers: 1, BatchMax: 1,
		RequestTimeout: 50 * time.Millisecond,
	})
	start := time.Now()
	resp, body := postClassify(t, addr, ClassifyRequest{Input: testInput(1)})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("typed timeout took %v; context never fired", el)
	}
	if eng.calls.Load() != 1 {
		t.Errorf("engine calls %d, want 1 (the context-aware path)", eng.calls.Load())
	}
	if st := s.Stats(); st.TimedOut != 1 {
		t.Errorf("timed_out %d, want 1", st.TimedOut)
	}
}

// TestFrameGuardTearsConn pins the max-frame defense: a hostile length
// prefix kills the connection without a response (and without the
// server allocating the advertised payload).
func TestFrameGuardTearsConn(t *testing.T) {
	eng := &stubEngine{}
	_, addr := startServer(t, Config{Inputs: 4, Engine: eng})
	for _, count := range []uint32{0, maxFrameFloats + 1, 0xffffffff} {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c.Write(Magic[:])
		binary.Write(c, binary.LittleEndian, count)
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Errorf("count %d: server answered a hostile frame instead of tearing the conn", count)
		}
		c.Close()
	}
	if eng.calls.Load() != 0 {
		t.Errorf("hostile frames reached the engine %d times", eng.calls.Load())
	}
}

// TestWrongDimensionKeepsConn pins the in-sync rejection: a sane but
// wrong-dimension frame gets StatusBadRequest and the connection
// survives for the next (valid) frame.
func TestWrongDimensionKeepsConn(t *testing.T) {
	_, addr := startServer(t, Config{Inputs: 4, Engine: &stubEngine{}})
	c, err := DialBinary(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Classify(make([]float64, 7))
	var rerr *RemoteError
	if !errors.As(err, &rerr) || rerr.Status != StatusBadRequest {
		t.Fatalf("wrong dimension: err = %v, want RemoteError status %d", err, StatusBadRequest)
	}
	if _, err := c.Classify(testInput(1)); err != nil {
		t.Fatalf("conn dead after in-sync rejection: %v", err)
	}
}

// TestSlowlorisTimeouts pins the binary read deadlines: an idle conn
// dies at IdleTimeout, and a trickled frame dies at ReadTimeout.
func TestSlowlorisTimeouts(t *testing.T) {
	_, addr := startServer(t, Config{
		Inputs: 4, Engine: &stubEngine{},
		ReadTimeout: 80 * time.Millisecond, IdleTimeout: 80 * time.Millisecond,
	})
	t.Run("idle", func(t *testing.T) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Write(Magic[:]) // then say nothing
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Error("idle connection survived past IdleTimeout")
		}
	})
	t.Run("mid-frame", func(t *testing.T) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Write(Magic[:])
		c.Write([]byte{4, 0}) // half a length prefix, then stall
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil {
			t.Error("trickled frame survived past ReadTimeout")
		}
	})
}

// TestEnginePanicIsolated pins the worker panic firewall: an engine
// panic answers the batch with an error and the server keeps serving.
func TestEnginePanicIsolated(t *testing.T) {
	eng := &panicEngine{}
	eng.boom.Store(true)
	s, addr := startServer(t, Config{Inputs: 4, Engine: eng, Workers: 1})

	resp, body := postClassify(t, addr, ClassifyRequest{Input: testInput(1)})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d (%s), want 500", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panic") {
		t.Errorf("500 body %q does not name the panic", body)
	}

	// The batcher survived: disarm and serve normally on the same server.
	eng.boom.Store(false)
	resp, body = postClassify(t, addr, ClassifyRequest{Input: testInput(2)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status %d (%s), want 200", resp.StatusCode, body)
	}
	st := s.Stats()
	if st.Failed != 1 || st.Served != 1 {
		t.Errorf("stats failed=%d served=%d, want 1/1", st.Failed, st.Served)
	}
	if st.Accepted != st.Served+st.Failed+st.TimedOut {
		t.Errorf("accounting broken after panic: %+v", st)
	}
}
