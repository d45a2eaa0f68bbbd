package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vortex/internal/fleet"
)

// slowEngine adds a fixed per-batch service time to stubEngine so a
// drain reliably begins with requests in flight.
type slowEngine struct {
	stubEngine
	delay time.Duration
}

func (e *slowEngine) ReadBatch(xs [][]float64) (fleet.BatchResult, error) {
	time.Sleep(e.delay)
	return e.stubEngine.ReadBatch(xs)
}

// TestDrainUnderLoadZeroLoss is the drain e2e: JSON and binary clients
// hammer the server, Shutdown fires mid-stream, and afterwards every
// admitted request must have been answered — accepted == served, zero
// failures, and the clients saw exactly as many answers as the server
// claims to have served.
func TestDrainUnderLoadZeroLoss(t *testing.T) {
	eng := &slowEngine{delay: 2 * time.Millisecond}
	s, addr := startServer(t, Config{
		Inputs: 4, Engine: eng, QueueDepth: 64, Workers: 2, BatchMax: 8,
	})

	var (
		answered atomic.Int64 // OK responses observed by clients
		rejected atomic.Int64 // backpressure/draining rejections observed
		stop     atomic.Bool
		wg       sync.WaitGroup
	)
	jsonClient := func(id int) {
		defer wg.Done()
		client := &http.Client{}
		for i := 0; !stop.Load(); i++ {
			raw, _ := json.Marshal(ClassifyRequest{Input: testInput(id*31 + i)})
			resp, err := client.Post("http://"+addr+"/v1/classify", "application/json", bytes.NewReader(raw))
			if err != nil {
				return // listener closed under us: the request was never admitted
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				answered.Add(1)
			case http.StatusTooManyRequests:
				rejected.Add(1)
			case http.StatusServiceUnavailable:
				rejected.Add(1)
				return // draining: the server is going away
			default:
				t.Errorf("json client %d: unexpected status %d", id, resp.StatusCode)
				return
			}
		}
	}
	binClient := func(id int) {
		defer wg.Done()
		c, err := DialBinary(addr, 5*time.Second)
		if err != nil {
			t.Errorf("bin client %d: %v", id, err)
			return
		}
		defer c.Close()
		for i := 0; !stop.Load(); i++ {
			_, err := c.Classify(testInput(id*17 + i))
			if err == nil {
				answered.Add(1)
				continue
			}
			var re *RemoteError
			if errors.As(err, &re) {
				rejected.Add(1)
				if re.Status == StatusDraining {
					return
				}
				continue
			}
			return // transport error: the drain poke tore the idle read
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go jsonClient(i)
		go binClient(i)
	}

	// Let traffic build, then drain mid-stream.
	waitFor(t, 10*time.Second, func() bool { return s.Stats().Accepted > 20 })
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := s.Shutdown(ctx)
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatalf("drain under load: %v", err)
	}

	st := s.Stats()
	if st.Failed != 0 {
		t.Errorf("drain failed %d admitted requests", st.Failed)
	}
	if st.Accepted != st.Served {
		t.Errorf("accepted %d != served %d: drain dropped admitted requests", st.Accepted, st.Served)
	}
	if got := answered.Load(); got != st.Served {
		t.Errorf("clients saw %d answers, server served %d", got, st.Served)
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth %d after drain, want 0", st.QueueDepth)
	}
	t.Logf("drained with %d served, %d rejected observed by clients", st.Served, rejected.Load())
}

// TestSubmitAfterDrain checks the post-drain admission contract: new
// work is refused with ErrDraining and counted, and a second Shutdown
// is an error.
func TestSubmitAfterDrain(t *testing.T) {
	eng := &stubEngine{}
	s, _ := startServer(t, Config{Inputs: 4, Engine: eng})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	if _, err := s.submit(testInput(0)); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit error %v, want ErrDraining", err)
	}
	if st := s.Stats(); st.RejectedDraining != 1 || !st.Draining {
		t.Errorf("post-drain stats %+v", st)
	}
	if err := s.Shutdown(ctx); err == nil {
		t.Error("second Shutdown accepted")
	}
}

// TestBinaryBadFrameRecovery checks that an in-sync rejected frame
// (wrong dimension, non-finite values) answers StatusBadRequest and
// leaves the connection usable for the next request.
func TestBinaryBadFrameRecovery(t *testing.T) {
	eng := &stubEngine{}
	_, addr := startServer(t, Config{Inputs: 4, Engine: eng})
	c, err := DialBinary(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var re *RemoteError
	if _, err := c.Classify(make([]float64, 7)); !errors.As(err, &re) || re.Status != StatusBadRequest {
		t.Fatalf("wrong dimension: got %v, want StatusBadRequest", err)
	}
	bad := testInput(0)
	bad[1] = math.NaN()
	if _, err := c.Classify(bad); !errors.As(err, &re) || re.Status != StatusBadRequest {
		t.Fatalf("NaN input: got %v, want StatusBadRequest", err)
	}
	cls, err := c.Classify(testInput(5))
	if err != nil {
		t.Fatalf("connection did not survive bad frames: %v", err)
	}
	if want := argmax(stubScores(testInput(5))); cls.Class != want {
		t.Errorf("post-recovery class %d, want %d", cls.Class, want)
	}
	if eng.calls.Load() != 1 {
		t.Errorf("engine saw %d batches, want 1 (bad frames must not reach it)", eng.calls.Load())
	}
}

// TestProtocolParity sends the same inputs over the binary hot path and
// HTTP/JSON and requires identical classifications.
func TestProtocolParity(t *testing.T) {
	eng := &stubEngine{}
	_, addr := startServer(t, Config{Inputs: 4, Engine: eng})
	c, err := DialBinary(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 6; i++ {
		x := testInput(i)
		bin, err := c.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postClassify(t, addr, ClassifyRequest{Input: x})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("json status %d: %s", resp.StatusCode, body)
		}
		var cr ClassifyResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if bin.Class != cr.Result.Class {
			t.Errorf("input %d: binary class %d != json class %d", i, bin.Class, cr.Result.Class)
		}
		if bin.Degraded != cr.Result.Degraded {
			t.Errorf("input %d: degraded flag disagrees", i)
		}
		if len(bin.Scores) != len(cr.Result.Scores) {
			t.Fatalf("input %d: score lengths %d vs %d", i, len(bin.Scores), len(cr.Result.Scores))
		}
		for j := range bin.Scores {
			if bin.Scores[j] != cr.Result.Scores[j] {
				t.Errorf("input %d: score[%d] %g (binary) != %g (json)", i, j, bin.Scores[j], cr.Result.Scores[j])
			}
		}
	}
}
