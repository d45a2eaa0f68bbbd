package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"vortex/internal/obs"
)

// Classification is one answered classification read, shared by the
// JSON and binary response encodings.
type Classification struct {
	// Class is the argmax class.
	Class int `json:"class"`
	// Scores are the sensed output scores, one per class.
	Scores []float64 `json:"scores"`
	// Member is the id of the fleet member that served the read.
	Member string `json:"member,omitempty"`
	// Degraded marks a read served by the fleet's last-resort path.
	Degraded bool `json:"degraded,omitempty"`
}

// ClassifyRequest is the body of POST /v1/classify: exactly one of
// Input (a single vector) or Inputs (a client-side batch of up to
// BatchMax vectors) must be set.
type ClassifyRequest struct {
	// Input is one logical input vector in [0,1]^Inputs.
	Input []float64 `json:"input,omitempty"`
	// Inputs is a batch of input vectors.
	Inputs [][]float64 `json:"inputs,omitempty"`
}

// ClassifyResponse is the body of a successful POST /v1/classify:
// Result answers a single-Input request, Results an Inputs batch.
type ClassifyResponse struct {
	// Result is the answer to a single-vector request.
	Result *Classification `json:"result,omitempty"`
	// Results are the per-vector answers to a batch request, in order.
	Results []Classification `json:"results,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	// Error describes what was rejected and why.
	Error string `json:"error"`
	// RetryAfterMs is the suggested client back-off for backpressure
	// rejections (429/503), zero otherwise.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	// Status is "serving" or "draining".
	Status string `json:"status"`
	// Inputs is the input dimension requests must carry.
	Inputs int `json:"inputs"`
	// Served is the number of requests answered so far.
	Served int64 `json:"served"`
	// Degraded reports the fleet's degraded mode: some member demoted,
	// or nothing Serving and reads riding the last-resort path. Load
	// balancers use it to deprioritize (not evict) the instance.
	Degraded bool `json:"degraded,omitempty"`
}

// maxJSONBody bounds a classify request body (a full-scale 784-input
// batch of 32 vectors is ~500 KB of JSON; 8 MB leaves headroom).
const maxJSONBody = 8 << 20

// httpHandler builds the server's HTTP surface: the classify endpoint,
// health and stats probes, and the Prometheus exposition of the
// process-default metrics registry.
func (s *Server) httpHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/classify", s.handleClassify)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/statz", s.handleStats)
	mux.HandleFunc("/metrics/prometheus", handleProm)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "vortexd crossbar inference service\n"+
			"POST /v1/classify  {\"input\":[...]} or {\"inputs\":[[...],...]}\n"+
			"GET  /healthz /statz /metrics/prometheus\n"+
			"binary hot path: open a connection with the 4-byte magic %q\n", Magic)
	})
	return mux
}

// handleClassify answers POST /v1/classify: decode, validate, admit
// every vector to the queue (backpressure applies to the whole
// request), await the micro-batched answers and encode them. The body
// is read whole into a pooled buffer and decoded by
// decodeClassifyBody; a single answer is encoded back into the same
// buffer by appendClassifyResult.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only", 0)
		return
	}
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer putBodyBuf(buf)
	_, readErr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxJSONBody))
	req, err := decodeClassifyBody(buf.Bytes(), readErr)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad request body: "+err.Error(), 0)
		return
	}
	single := req.Input != nil
	inputs := req.Inputs
	if single {
		if req.Inputs != nil {
			writeJSONError(w, http.StatusBadRequest, "set input or inputs, not both", 0)
			return
		}
		inputs = [][]float64{req.Input}
	}
	if len(inputs) == 0 {
		writeJSONError(w, http.StatusBadRequest, "empty request", 0)
		return
	}
	if len(inputs) > s.cfg.BatchMax {
		writeJSONError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds the %d maximum", len(inputs), s.cfg.BatchMax), 0)
		return
	}
	for _, x := range inputs {
		if err := s.validInput(x); err != nil {
			writeJSONError(w, http.StatusBadRequest, err.Error(), 0)
			return
		}
	}

	// Admit all vectors before waiting on any, so they queue together
	// and coalesce into few micro-batches — not always one: an idle
	// worker takes the first vector alone the moment it is queued,
	// and the rest ride the next batch. If admission fails midway the
	// already-admitted vectors are awaited (never abandoned) and the
	// whole request reports the rejection.
	reqs := make([]*request, 0, len(inputs))
	var admitErr error
	for _, x := range inputs {
		rq := &request{x: x, resp: make(chan response, 1)}
		if admitErr = s.enqueue(rq); admitErr != nil {
			break
		}
		reqs = append(reqs, rq)
	}
	results := make([]Classification, 0, len(reqs))
	var engineErr error
	for _, rq := range reqs {
		resp := <-rq.resp
		if resp.err != nil {
			engineErr = resp.err
			continue
		}
		results = append(results, resp.cls)
	}
	answered := time.Now()
	switch {
	case admitErr != nil:
		s.writeBackpressure(w, admitErr)
		return
	case errors.Is(engineErr, ErrDeadlineExceeded):
		writeJSONError(w, http.StatusGatewayTimeout, engineErr.Error(), 0)
		return
	case engineErr != nil:
		writeJSONError(w, http.StatusInternalServerError, engineErr.Error(), 0)
		return
	}
	for _, r := range results {
		if r.Degraded {
			w.Header().Set("X-Vortex-Degraded", "1")
			break
		}
	}
	// The body is decoded, so its buffer takes a single answer.
	if !single {
		writeJSON(w, http.StatusOK, ClassifyResponse{Results: results})
	} else if out, ok := appendClassifyResult(buf.Bytes()[:0], results[0]); ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(out)
	} else {
		writeJSON(w, http.StatusOK, ClassifyResponse{Result: &results[0]})
	}
	end := time.Now()
	s.hHTTP.RecordDuration(end.Sub(start))
	s.hDecode.RecordDuration(reqs[0].admitted.Sub(start))
	s.hEncodeWrite.RecordDuration(end.Sub(answered))
}

// validInput checks one vector's dimension and finiteness.
func (s *Server) validInput(x []float64) error {
	if len(x) != s.cfg.Inputs {
		return fmt.Errorf("input length %d, want %d", len(x), s.cfg.Inputs)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("input contains NaN or Inf")
		}
	}
	return nil
}

// writeBackpressure renders an admission rejection: 429 for a full
// queue, 503 for a draining server, both with Retry-After.
func (s *Server) writeBackpressure(w http.ResponseWriter, err error) {
	code := http.StatusTooManyRequests
	if errors.Is(err, ErrDraining) {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Retry-After", s.retryAfterSeconds())
	writeJSONError(w, code, err.Error(), s.cfg.RetryAfter.Milliseconds())
}

// handleHealth answers GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "serving"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   status,
		Inputs:   s.cfg.Inputs,
		Served:   s.served.Load(),
		Degraded: s.degradedMode(),
	})
}

// handleStats answers GET /statz with the Stats snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleProm serves the process-default metrics registry in Prometheus
// text exposition format.
func handleProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.Default().WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeJSON encodes v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeJSONError encodes an ErrorResponse with the given status.
func writeJSONError(w http.ResponseWriter, code int, msg string, retryMs int64) {
	writeJSON(w, code, ErrorResponse{Error: msg, RetryAfterMs: retryMs})
}
