package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vortex/internal/fleet"
	"vortex/internal/obs"
)

// stubEngine is a scriptable Engine: deterministic scores (score j =
// sum(x) + j mod small prime keeps argmax input-dependent), optional
// gate to block batches, batch-size recording.
type stubEngine struct {
	mu         sync.Mutex
	batchSizes []int
	gate       chan struct{} // when non-nil, ReadBatchCtx blocks until it closes
	fail       atomic.Bool   // when set, ReadBatchCtx errors
	calls      atomic.Int64
}

func (e *stubEngine) ReadBatchCtx(_ context.Context, xs [][]float64) (fleet.BatchResult, error) {
	e.calls.Add(1)
	if e.gate != nil {
		<-e.gate
	}
	if e.fail.Load() {
		return fleet.BatchResult{}, fmt.Errorf("stub: engine down")
	}
	e.mu.Lock()
	e.batchSizes = append(e.batchSizes, len(xs))
	e.mu.Unlock()
	res := fleet.BatchResult{
		Scores:  make([][]float64, len(xs)),
		Classes: make([]int, len(xs)),
		Member:  "stub0",
	}
	for i, x := range xs {
		res.Scores[i] = stubScores(x)
		res.Classes[i] = argmax(res.Scores[i])
	}
	return res, nil
}

// stubScores maps an input to a deterministic 10-class score vector.
func stubScores(x []float64) []float64 {
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	s := make([]float64, 10)
	for j := range s {
		s[j] = sum * float64((j*7+int(sum*100))%11)
	}
	return s
}

func argmax(s []float64) int {
	best := 0
	for i, v := range s {
		if v > s[best] {
			best = i
		}
	}
	return best
}

// startServer boots a Server on a loopback listener and returns it
// with its address; the cleanup drains it (unless the test already
// did).
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		if !s.Draining() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("cleanup shutdown: %v", err)
			}
		}
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return s, ln.Addr().String()
}

func testInput(seed int) []float64 {
	x := make([]float64, 4)
	for i := range x {
		x[i] = float64((seed+i)%10) / 10
	}
	return x
}

func postClassify(t *testing.T, addr string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/classify", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestJSONClassify(t *testing.T) {
	eng := &stubEngine{}
	_, addr := startServer(t, Config{Inputs: 4, Engine: eng})

	x := testInput(3)
	resp, body := postClassify(t, addr, ClassifyRequest{Input: x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr ClassifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Result == nil {
		t.Fatal("missing result")
	}
	want := stubScores(x)
	if cr.Result.Class != argmax(want) {
		t.Errorf("class %d, want %d", cr.Result.Class, argmax(want))
	}
	if len(cr.Result.Scores) != 10 {
		t.Errorf("got %d scores, want 10", len(cr.Result.Scores))
	}
	if cr.Result.Member != "stub0" {
		t.Errorf("member %q", cr.Result.Member)
	}

	// Client-side batch.
	resp, body = postClassify(t, addr, ClassifyRequest{Inputs: [][]float64{testInput(1), testInput(2)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var br ClassifyResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(br.Results))
	}
}

func TestJSONValidation(t *testing.T) {
	eng := &stubEngine{}
	_, addr := startServer(t, Config{Inputs: 4, Engine: eng, BatchMax: 4})

	cases := []struct {
		name string
		body any
		want int
	}{
		{"wrong dimension", ClassifyRequest{Input: make([]float64, 7)}, http.StatusBadRequest},
		{"empty", ClassifyRequest{}, http.StatusBadRequest},
		{"both set", map[string]any{"input": testInput(0), "inputs": [][]float64{testInput(1)}}, http.StatusBadRequest},
		{"oversized batch", ClassifyRequest{Inputs: [][]float64{
			testInput(0), testInput(1), testInput(2), testInput(3), testInput(4)}}, http.StatusBadRequest},
		{"non-finite", map[string]any{"input": []any{0.1, "NaN", 0.2, 0.3}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postClassify(t, addr, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
	}
	if got := eng.calls.Load(); got != 0 {
		t.Errorf("engine saw %d batches from invalid requests", got)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	// One worker blocked on the gate, queue depth 2: the first request
	// occupies the worker, two fill the queue, the next must get 429.
	eng := &stubEngine{gate: make(chan struct{})}
	s, addr := startServer(t, Config{
		Inputs: 4, Engine: eng, QueueDepth: 2, Workers: 1, BatchMax: 1,
		RetryAfter: 1500 * time.Millisecond,
	})

	var wg sync.WaitGroup
	results := make(chan int, 16)
	// Saturate: the gate holds the worker, so at most 1 (in worker) + 2
	// (queued) requests are in flight; send 8, expect >= 5 rejections.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, _ := json.Marshal(ClassifyRequest{Input: testInput(i)})
			resp, err := http.Post("http://"+addr+"/v1/classify", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				if ra := resp.Header.Get("Retry-After"); ra != "2" {
					t.Errorf("Retry-After %q, want %q (1.5s rounded up)", ra, "2")
				}
				var er ErrorResponse
				json.NewDecoder(resp.Body).Decode(&er)
				if er.RetryAfterMs != 1500 {
					t.Errorf("retry_after_ms %d, want 1500", er.RetryAfterMs)
				}
			}
			results <- resp.StatusCode
		}(i)
	}
	// Wait until the rejections have landed, then open the gate so the
	// admitted requests drain.
	deadline := time.After(10 * time.Second)
	got429 := 0
	collected := 0
	var codes []int
	for collected < 5 { // 8 sent, at most 3 admitted => at least 5 rejected
		select {
		case c := <-results:
			collected++
			codes = append(codes, c)
			if c == http.StatusTooManyRequests {
				got429++
			}
		case <-deadline:
			t.Fatalf("only %d responses before the gate opened (codes %v)", collected, codes)
		}
	}
	close(eng.gate)
	wg.Wait()
	close(results)
	for c := range results {
		codes = append(codes, c)
		if c == http.StatusTooManyRequests {
			got429++
		}
	}
	if got429 < 5 {
		t.Errorf("got %d 429s from 8 requests over a 2-deep queue, want >= 5 (codes %v)", got429, codes)
	}
	st := s.Stats()
	if st.RejectedQueueFull != int64(got429) {
		t.Errorf("stats rejected_queue_full %d, want %d", st.RejectedQueueFull, got429)
	}
	if st.Accepted+st.RejectedQueueFull != 8 {
		t.Errorf("accepted %d + rejected %d != 8", st.Accepted, st.RejectedQueueFull)
	}
}

// TestRetryAfterRoundsUp: the Retry-After header is the configured
// back-off rounded up to whole seconds, and at least 1, so a client
// that honours it never comes back early.
func TestRetryAfterRoundsUp(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{250 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1200 * time.Millisecond, "2"},
		{1500 * time.Millisecond, "2"},
		{2 * time.Second, "2"},
	} {
		s := &Server{cfg: Config{RetryAfter: tc.d}}
		if got := s.retryAfterSeconds(); got != tc.want {
			t.Errorf("RetryAfter %v: Retry-After %q, want %q", tc.d, got, tc.want)
		}
	}
}

// stageCounts reads the observation counts of the decode, queue-wait
// and encode-write stage histograms.
func stageCounts() [3]int64 {
	reg := obs.Default()
	return [3]int64{
		reg.Histogram("serve.stage.decode_ns").Count(),
		reg.Histogram("serve.stage.queue_wait_ns").Count(),
		reg.Histogram("serve.stage.encode_write_ns").Count(),
	}
}

// TestStageHistograms: on each protocol, serve.stage.decode_ns and
// serve.stage.encode_write_ns record once per answered request and
// serve.stage.queue_wait_ns once per computed vector; a rejected
// request records nothing. The server is drained before the counts are
// read, so every handler has finished recording.
func TestStageHistograms(t *testing.T) {
	drain := func(t *testing.T, s *Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("http", func(t *testing.T) {
		s, addr := startServer(t, Config{Inputs: 4, Engine: &stubEngine{}})
		before := stageCounts()
		for i := 0; i < 3; i++ {
			if resp, body := postClassify(t, addr, ClassifyRequest{Input: testInput(i)}); resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
		}
		batch := ClassifyRequest{Inputs: [][]float64{testInput(4), testInput(5)}}
		if resp, body := postClassify(t, addr, batch); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d: %s", resp.StatusCode, body)
		}
		if resp, _ := postClassify(t, addr, ClassifyRequest{Input: make([]float64, 7)}); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("wrong dimension answered %d", resp.StatusCode)
		}
		drain(t, s)
		after := stageCounts()
		// 4 answered requests carrying 5 vectors.
		if got, want := [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}, [3]int64{4, 5, 4}; got != want {
			t.Errorf("decode, queue_wait, encode_write recorded %v times, want %v", got, want)
		}
	})
	t.Run("binary", func(t *testing.T) {
		s, addr := startServer(t, Config{Inputs: 4, Engine: &stubEngine{}})
		before := stageCounts()
		c, err := DialBinary(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := c.Classify(testInput(i)); err != nil {
				t.Fatal(err)
			}
		}
		var rerr *RemoteError
		if _, err := c.Classify(make([]float64, 7)); !errors.As(err, &rerr) || rerr.Status != StatusBadRequest {
			t.Fatalf("wrong dimension answered %v", err)
		}
		c.Close()
		drain(t, s)
		after := stageCounts()
		if got, want := [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}, [3]int64{3, 3, 3}; got != want {
			t.Errorf("decode, queue_wait, encode_write recorded %v times, want %v", got, want)
		}
	})
}

func TestBinaryQueueFullStatus(t *testing.T) {
	eng := &stubEngine{gate: make(chan struct{})}
	s, addr := startServer(t, Config{
		Inputs: 4, Engine: eng, QueueDepth: 1, Workers: 1, BatchMax: 1,
		RetryAfter: 300 * time.Millisecond,
	})

	// Fill the worker and the queue from two connections, then a third
	// must see StatusOverloaded.
	var fillWg sync.WaitGroup
	for i := 0; i < 2; i++ {
		c, err := DialBinary(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		fillWg.Add(1)
		go func(c *BinaryClient, i int) {
			defer fillWg.Done()
			if _, err := c.Classify(testInput(i)); err != nil {
				t.Errorf("filler %d: %v", i, err)
			}
		}(c, i)
	}
	// Let the fillers occupy worker + queue: both admitted, one of them
	// in the engine. Until the second is admitted the queue has room,
	// and a probe admitted there would wait on the gate.
	waitFor(t, 5*time.Second, func() bool {
		return eng.calls.Load() >= 1 && s.Stats().Accepted == 2
	})

	c3, err := DialBinary(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	c3.SetTimeout(5 * time.Second)
	_, err = c3.Classify(testInput(9))
	var rerr *RemoteError
	if !errors.As(err, &rerr) || rerr.Status != StatusOverloaded {
		t.Errorf("saturated queue answered %v, want StatusOverloaded", err)
	} else if rerr.RetryAfter != 300*time.Millisecond {
		t.Errorf("retry-after %v, want 300ms", rerr.RetryAfter)
	}
	close(eng.gate)
	fillWg.Wait()
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}

func TestMicroBatching(t *testing.T) {
	// Requests that queue behind a busy worker coalesce into one engine
	// call: with the sole worker held in the gated engine, 20 parked
	// requests must drain as one full micro-batch plus the remainder.
	eng := &stubEngine{gate: make(chan struct{})}
	s, _ := startServer(t, Config{Inputs: 4, Engine: eng, Workers: 1, BatchMax: 16})
	var wg sync.WaitGroup
	submit := func(i int) {
		defer wg.Done()
		if _, err := s.submit(testInput(i)); err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	wg.Add(1)
	go submit(0)
	waitFor(t, 5*time.Second, func() bool { return eng.calls.Load() == 1 })
	const parked = 20
	for i := 1; i <= parked; i++ {
		wg.Add(1)
		go submit(i)
	}
	waitFor(t, 5*time.Second, func() bool { return s.Stats().QueueDepth == parked })
	close(eng.gate)
	wg.Wait()
	eng.mu.Lock()
	defer eng.mu.Unlock()
	if want := []int{1, 16, 4}; !slices.Equal(eng.batchSizes, want) {
		t.Errorf("batch sizes %v, want %v", eng.batchSizes, want)
	}
}

func TestEngineFailure(t *testing.T) {
	eng := &stubEngine{}
	eng.fail.Store(true)
	s, addr := startServer(t, Config{Inputs: 4, Engine: eng})
	resp, body := postClassify(t, addr, ClassifyRequest{Input: testInput(0)})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "engine down") {
		t.Errorf("body %q does not carry the engine error", body)
	}
	if st := s.Stats(); st.Failed != 1 {
		t.Errorf("failed count %d, want 1", st.Failed)
	}
}

func TestHealthAndStats(t *testing.T) {
	eng := &stubEngine{}
	s, addr := startServer(t, Config{Inputs: 4, Engine: eng})
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "serving" || h.Inputs != 4 {
		t.Errorf("healthz %+v", h)
	}
	if _, err := s.submit(testInput(1)); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get("http://" + addr + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Served != 1 || st.Accepted != 1 {
		t.Errorf("statz %+v", st)
	}

	// The Prometheus exposition endpoint serves the shared registry.
	resp, err = http.Get("http://" + addr + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "serve_served_total") {
		t.Errorf("prometheus exposition missing serve counters:\n%.400s", buf.String())
	}
}

func TestConfigValidate(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(Config{Engine: &stubEngine{}}); err == nil {
		t.Error("zero inputs accepted")
	}
}

// TestServeRealFleet wires a real quick-scale fleet under the server
// and checks classifications flow end to end — the integration path
// vortexd runs, minus the process boundary.
func TestServeRealFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping fleet boot (trains a classifier)")
	}
	boot, err := BuildFleet(BootConfig{Scale: "quick", Members: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if boot.Inputs != 49 {
		t.Fatalf("quick-scale inputs %d, want 49", boot.Inputs)
	}
	s, addr := startServer(t, Config{Inputs: boot.Inputs, Engine: boot.Fleet})

	correct, n := 0, 0
	for _, smp := range boot.Test.Samples[:40] {
		resp, body := postClassify(t, addr, ClassifyRequest{Input: smp.Pixels})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var cr ClassifyResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Result.Member == "" {
			t.Fatal("result missing member id")
		}
		if cr.Result.Class == smp.Label {
			correct++
		}
		n++
	}
	// The fleet's own accuracy is ~0.6+ at quick scale; served answers
	// must look like classifications, not noise.
	if frac := float64(correct) / float64(n); frac < 0.3 {
		t.Errorf("served accuracy %.2f over %d samples; routing looks broken", frac, n)
	}
	if st := s.Stats(); st.Fleet == nil {
		t.Error("stats missing fleet snapshot for a fleet engine")
	}

	// Binary and JSON answers agree on the real fleet too.
	bc, err := DialBinary(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	x := boot.Test.Samples[0].Pixels
	bin, err := bc.Classify(x)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postClassify(t, addr, ClassifyRequest{Input: x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var cr ClassifyResponse
	json.Unmarshal(body, &cr)
	if bin.Class != cr.Result.Class {
		t.Errorf("binary class %d != json class %d", bin.Class, cr.Result.Class)
	}
}

// TestBuildFleetLeavesNoGoroutine: the digit render and the trainer run
// on goroutines of their own, and no return leaves one running: after a
// boot, and after an error from fabrication once both have run, the
// goroutine count is back to what it was. Run it under -race -count=10.
func TestBuildFleetLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	boot, err := BuildFleet(BootConfig{Scale: "quick", Members: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if boot.Test.Len() != 150 || boot.Accuracy <= 0.1 {
		t.Fatalf("test set of %d samples, boot accuracy %v", boot.Test.Len(), boot.Accuracy)
	}
	if _, err := BuildFleet(BootConfig{Scale: "quick", Members: 1, Sigma: -1}); err == nil {
		t.Fatal("negative sigma: expected a fabrication error")
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after BuildFleet returned, %d before", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

// TestBuildFleetRecordsBootSpans: one boot records each of its four
// stage spans once, render, train, program and accuracy, so a slow boot
// can be read off the span histograms.
func TestBuildFleetRecordsBootSpans(t *testing.T) {
	stages := []string{"render", "train", "program", "accuracy"}
	count := func(stage string) int64 {
		return obs.Default().Histogram("span.serve.boot." + stage).Count()
	}
	before := map[string]int64{}
	for _, st := range stages {
		before[st] = count(st)
	}
	if _, err := BuildFleet(BootConfig{Scale: "quick", Members: 2, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	for _, st := range stages {
		if got := count(st) - before[st]; got != 1 {
			t.Errorf("serve.boot.%s: %d spans from one boot, want 1", st, got)
		}
	}
}

// TestLoadSetMatchesBootTest: LoadSet renders only the test set, and it
// is the set BuildFleet evaluated the fleet on, sample for sample and
// bit for bit.
func TestLoadSetMatchesBootTest(t *testing.T) {
	for _, seed := range []uint64{7, 42} {
		boot, err := BuildFleet(BootConfig{Scale: "quick", Members: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		set, err := LoadSet("quick", seed)
		if err != nil {
			t.Fatal(err)
		}
		want := boot.Test
		if set.Size != want.Size || set.Len() != want.Len() {
			t.Fatalf("seed %d: %d samples of size %d, want %d of size %d", seed, set.Len(), set.Size, want.Len(), want.Size)
		}
		for i, w := range want.Samples {
			g := set.Samples[i]
			if g.Label != w.Label || len(g.Pixels) != len(w.Pixels) {
				t.Fatalf("seed %d sample %d: label %d (%d px), want %d (%d px)", seed, i, g.Label, len(g.Pixels), w.Label, len(w.Pixels))
			}
			for q, v := range w.Pixels {
				if math.Float64bits(g.Pixels[q]) != math.Float64bits(v) {
					t.Fatalf("seed %d sample %d pixel %d: %v, want %v", seed, i, q, g.Pixels[q], v)
				}
			}
		}
	}
}

// TestBuildFleetAccuracyPinned pins the booted fleet's test accuracy,
// bit for bit, at the settings vortexd and perfbench boot with (three
// members, σ 0.3): a change to rendering, training, fabrication,
// programming or the read path that moves any answer shows here. Full
// scale at seed 42 is perfbench's serve_bin boot_accuracy gate and Quick
// at seed 42 its serve_json one; the Full boot is skipped under -short.
func TestBuildFleetAccuracyPinned(t *testing.T) {
	for _, tc := range []struct {
		scale string
		seed  uint64
		want  float64
	}{
		{"quick", 1, 0.6333333333333333},
		{"quick", 2, 0.6733333333333333},
		{"quick", 3, 0.6666666666666666},
		{"quick", 42, 0.6133333333333333},
		{"full", 42, 0.921},
	} {
		if tc.scale == "full" && testing.Short() {
			t.Logf("short mode: skipping the Full boot at seed %d", tc.seed)
			continue
		}
		boot, err := BuildFleet(BootConfig{Scale: tc.scale, Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		if boot.Accuracy != tc.want {
			t.Errorf("%s seed %d: accuracy %v, want %v", tc.scale, tc.seed, boot.Accuracy, tc.want)
		}
	}
}
