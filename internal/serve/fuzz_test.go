package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vortex/internal/fleet"
)

// FuzzReadRequestFrame feeds arbitrary bytes to the server's request
// frame decoder (a connection's frameReader). It must never panic; a decoded vector has exactly the
// expected dimension, only finite values, and consumed exactly its
// frame; an in-sync rejection (errBadFrame) consumed exactly the frame
// its header advertised, so the connection's next frame starts where
// the server resumes reading. The seed corpus is in testdata/fuzz.
func FuzzReadRequestFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte, inputs uint16) {
		r := bytes.NewReader(frame)
		fr := newFrameReader(r, int(inputs))
		x, err := fr.next()
		consumed := len(frame) - r.Len() - fr.br.Buffered()
		switch {
		case err == nil:
			if len(x) != int(inputs) {
				t.Fatalf("decoded %d values, want %d", len(x), inputs)
			}
			for i, v := range x {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite value %v at %d accepted", v, i)
				}
			}
			if want := 4 + 8*int(inputs); consumed != want {
				t.Fatalf("accepted frame consumed %d bytes, want %d", consumed, want)
			}
		case errors.Is(err, errBadFrame):
			count := binary.LittleEndian.Uint32(frame)
			if want := 4 + 8*int64(count); int64(consumed) != want {
				t.Fatalf("in-sync rejection consumed %d bytes, want the advertised %d", consumed, want)
			}
		}
	})
}

// FuzzReadResponseFrame checks that OK and error response frames
// survive an encode → read round trip bit for bit, and that the client's
// decoder does not panic on arbitrary bytes. The seed corpus is in
// testdata/fuzz.
func FuzzReadResponseFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, class int32, degraded bool, raw []byte, status byte, retryMs uint32, msg string) {
		readResponseFrame(bufio.NewReader(bytes.NewReader(raw)))

		scores := make([]float64, len(raw)/8)
		for i := range scores {
			scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		buf := bytes.NewBuffer(appendOKFrame(nil, Classification{Class: int(class), Scores: scores, Degraded: degraded}))
		br := bufio.NewReader(buf)
		cls, err := readResponseFrame(br)
		if err != nil {
			t.Fatalf("OK frame did not decode: %v", err)
		}
		if cls.Class != int(class) || cls.Degraded != degraded || len(cls.Scores) != len(scores) {
			t.Fatalf("OK frame decoded to %+v, want class %d degraded %v with %d scores",
				cls, class, degraded, len(scores))
		}
		for i, v := range cls.Scores {
			if math.Float64bits(v) != math.Float64bits(scores[i]) {
				t.Fatalf("score %d decoded to %v, want %v", i, v, scores[i])
			}
		}
		if left := buf.Len() + br.Buffered(); left != 0 {
			t.Fatalf("OK frame left %d bytes unread", left)
		}

		if status == StatusOK {
			return
		}
		retryAfter := time.Duration(retryMs) * time.Millisecond
		buf = bytes.NewBuffer(appendErrorFrame(nil, status, retryAfter, msg))
		br = bufio.NewReader(buf)
		_, err = readResponseFrame(br)
		var rerr *RemoteError
		if !errors.As(err, &rerr) {
			if len(msg) > 1<<16 && err != nil {
				return // the decoder's bound on error messages
			}
			t.Fatalf("error frame decoded to %v, want a RemoteError", err)
		}
		if rerr.Status != status || rerr.RetryAfter != retryAfter || rerr.Msg != msg {
			t.Fatalf("error frame decoded to %+v, want status %d retry %v msg %q", rerr, status, retryAfter, msg)
		}
		if left := buf.Len() + br.Buffered(); left != 0 {
			t.Fatalf("error frame left %d bytes unread", left)
		}
	})
}

// finiteEngine answers every read with fixed finite scores. The stub
// engine's scores grow with the input and overflow on the huge finite
// values a fuzzer sends, which no crossbar can produce: the fleet
// clamps every drive to [0, 1].
type finiteEngine struct{}

func (finiteEngine) ReadBatchCtx(_ context.Context, xs [][]float64) (fleet.BatchResult, error) {
	res := fleet.BatchResult{Scores: make([][]float64, len(xs)), Classes: make([]int, len(xs)), Member: "m0"}
	for i := range xs {
		res.Scores[i] = []float64{0.5, 1, 0.25}
		res.Classes[i] = 1
	}
	return res, nil
}

// classifyBodyOK is the /v1/classify contract a body must meet to be
// answered 200: one JSON object setting exactly one of input and
// inputs, holding 1 to batchMax vectors of dimension inputs.
// (encoding/json already refuses NaN, Inf and out-of-range numbers.)
func classifyBodyOK(body []byte, inputs, batchMax int) (vectors int, ok bool) {
	var req ClassifyRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return 0, false
	}
	xs := req.Inputs
	if req.Input != nil {
		if req.Inputs != nil {
			return 0, false
		}
		xs = [][]float64{req.Input}
	}
	if len(xs) == 0 || len(xs) > batchMax {
		return 0, false
	}
	for _, x := range xs {
		if len(x) != inputs {
			return 0, false
		}
	}
	return len(xs), true
}

// FuzzClassifyBody POSTs arbitrary bytes to /v1/classify. The handler
// must never panic and must always answer a valid JSON body: 200 with
// one result per vector exactly when the body meets the contract
// (classifyBodyOK), a 4xx otherwise. The seed corpus is in
// testdata/fuzz.
func FuzzClassifyBody(f *testing.F) {
	const inputs, batchMax = 4, 3
	s, err := New(Config{Inputs: inputs, Engine: finiteEngine{}, BatchMax: batchMax})
	if err != nil {
		f.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }() // starts the batcher workers
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		<-done
	})
	h := s.httpHandler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)))
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d with invalid JSON body %q", rec.Code, rec.Body.Bytes())
		}
		vectors, ok := classifyBodyOK(body, inputs, batchMax)
		if !ok {
			if rec.Code < 400 || rec.Code > 499 {
				t.Fatalf("body %q breaks the contract but was answered %d: %s", body, rec.Code, rec.Body.Bytes())
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("valid body %q answered %d: %s", body, rec.Code, rec.Body.Bytes())
		}
		var resp ClassifyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		got := len(resp.Results)
		if resp.Result != nil {
			got++
		}
		if got != vectors {
			t.Fatalf("%d vectors answered with %d results", vectors, got)
		}
	})
}
