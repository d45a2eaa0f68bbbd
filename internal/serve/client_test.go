package serve

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// scriptedServer accepts binary-protocol connections and hands each
// (in accept order) to the script for that index; scripts past the end
// reuse the last one. Each script gets the raw conn after the magic
// handshake was consumed.
func scriptedServer(t *testing.T, scripts ...func(c net.Conn)) (addr string, accepted *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted = &atomic.Int64{}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			i := int(accepted.Add(1)) - 1
			if i >= len(scripts) {
				i = len(scripts) - 1
			}
			go func(c net.Conn, script func(net.Conn)) {
				defer c.Close()
				var magic [4]byte
				if _, err := io.ReadFull(c, magic[:]); err != nil {
					return
				}
				script(c)
			}(c, scripts[i])
		}
	}()
	return ln.Addr().String(), accepted
}

// answerOK reads one request frame and answers StatusOK, in a loop.
func answerOK(c net.Conn) {
	fr := newFrameReader(c, 4)
	for {
		x, err := fr.next()
		if err != nil {
			return
		}
		if _, err := c.Write(appendOKFrame(nil, Classification{Class: 1, Scores: stubScores(x)})); err != nil {
			return
		}
	}
}

// hangUp drops the connection without answering.
func hangUp(c net.Conn) {}

func TestResilientRetryAfterTransportError(t *testing.T) {
	// First connection dies mid-request; the retry redials and succeeds.
	addr, accepted := scriptedServer(t, hangUp, answerOK)
	rc, err := NewResilientClient(ClientConfig{
		Addr:  addr,
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	cls, err := rc.Classify(testInput(1))
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if cls.Class != 1 {
		t.Errorf("class %d, want 1", cls.Class)
	}
	st := rc.Stats()
	if st.Retries != 1 || st.Answered != 1 || st.Redials != 1 {
		t.Errorf("stats %+v, want 1 retry, 1 answer, 1 redial", st)
	}
	if accepted.Load() != 2 {
		t.Errorf("server accepted %d conns, want 2", accepted.Load())
	}
}

func TestResilientRetryBudget(t *testing.T) {
	// Every connection dies: the first request burns the burst tokens,
	// later requests are budget-limited to ~BudgetRatio retries each
	// instead of MaxAttempts — the anti-retry-storm property.
	addr, _ := scriptedServer(t, hangUp)
	rc, err := NewResilientClient(ClientConfig{
		Addr: addr,
		Retry: RetryPolicy{
			MaxAttempts: 5, BaseBackoff: time.Microsecond,
			MaxBackoff: time.Millisecond, BudgetRatio: 0.2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	const reqs = 10
	for i := 0; i < reqs; i++ {
		if _, err := rc.Classify(testInput(i)); err == nil {
			t.Fatal("hang-up server answered")
		}
	}
	st := rc.Stats()
	if st.Failures != reqs {
		t.Errorf("failures %d, want %d", st.Failures, reqs)
	}
	if st.BudgetDenied == 0 {
		t.Error("budget never denied a retry against a dead server")
	}
	// Unbudgeted, 10 requests would retry 40 times; the budget must
	// hold it to the burst (4) plus ~0.2 per request.
	if st.Retries > 10 {
		t.Errorf("retries %d; the budget is not braking the storm", st.Retries)
	}
}

func TestResilientNoRetryOnBadRequest(t *testing.T) {
	// A real server rejects a wrong-dimension vector with
	// StatusBadRequest — deterministic, so retrying would only repeat
	// the rejection.
	_, addr := startServer(t, Config{Inputs: 4, Engine: &stubEngine{}})
	rc, err := NewResilientClient(ClientConfig{
		Addr:  addr,
		Retry: RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	_, cerr := rc.Classify(make([]float64, 7))
	var rerr *RemoteError
	if !errors.As(cerr, &rerr) || rerr.Status != StatusBadRequest {
		t.Fatalf("err = %v, want StatusBadRequest", cerr)
	}
	if st := rc.Stats(); st.Retries != 0 || st.Failures != 1 {
		t.Errorf("stats %+v, want 0 retries / 1 failure", st)
	}
}

func TestResilientHedgeWins(t *testing.T) {
	// The first connection swallows the request and stalls far past the
	// hedge delay; the hedge lane answers promptly and must win.
	stall := func(c net.Conn) {
		if _, err := newFrameReader(c, 4).next(); err != nil {
			return
		}
		time.Sleep(2 * time.Second) // hold the answer hostage
	}
	addr, accepted := scriptedServer(t, stall, answerOK)
	rc, err := NewResilientClient(ClientConfig{
		Addr:       addr,
		HedgeDelay: 30 * time.Millisecond,
		Retry:      RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	start := time.Now()
	cls, cerr := rc.Classify(testInput(1))
	if cerr != nil {
		t.Fatalf("Classify: %v", cerr)
	}
	if cls.Class != 1 {
		t.Errorf("class %d, want 1", cls.Class)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("hedged answer took %v; the client waited for the stalled lane", el)
	}
	st := rc.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Errorf("stats %+v, want 1 hedge / 1 hedge win", st)
	}
	if accepted.Load() != 2 {
		t.Errorf("server accepted %d conns, want 2 (primary + hedge)", accepted.Load())
	}

	// The stalled lane's connection was closed (its late answer would
	// desynchronize the stream); the next request works regardless.
	if _, err := rc.Classify(testInput(2)); err != nil {
		t.Errorf("post-hedge request: %v", err)
	}
}
