package serving

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"

	"repro/internal/tensor"
)

// Server exposes a Registry over HTTP/JSON — the thin edge of cmd/tfserve:
//
//	POST /v1/models/<name>:predict   run one predict
//	GET  /v1/models                  status of every loaded model
//	GET  /healthz                    liveness: 200 once models are loaded
type Server struct {
	reg *Registry
}

// NewServer wraps a registry.
func NewServer(reg *Registry) *Server { return &Server{reg: reg} }

// maxBodyBytes bounds a predict request body; bodyPresize, how much of it is
// allocated on the word of the Content-Length header alone.
const maxBodyBytes, bodyPresize = 64 << 20, 1 << 20

// Handler returns the HTTP routing for the serving API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/v1/models", s.handleStatus)
	mux.HandleFunc("/v1/models/", s.handleModel)
	return mux
}

func (s *Server) handleHealth(w http.ResponseWriter, req *http.Request) {
	if len(s.reg.Status()) == 0 {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("no models loaded"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	writeJSON(w, map[string]any{"models": s.reg.Status()})
}

// handleModel dispatches /v1/models/<name>:predict and /v1/models/<name>.
func (s *Server) handleModel(w http.ResponseWriter, req *http.Request) {
	rest := strings.TrimPrefix(req.URL.Path, "/v1/models/")
	if name, ok := strings.CutSuffix(rest, ":predict"); ok {
		s.handlePredict(w, req, name)
		return
	}
	// Status of one model.
	if req.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET, or POST to :predict"))
		return
	}
	m := s.reg.Model(rest)
	if m == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown model %q", rest))
		return
	}
	writeJSON(w, map[string]any{
		"name": m.Name, "version": m.Version, "signature": m.Sig,
	})
}

func (s *Server) handlePredict(w http.ResponseWriter, req *http.Request, name string) {
	if req.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	if s.reg.Model(name) == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown model %q", name))
		return
	}
	var buf bytes.Buffer // sized once from Content-Length, not by doubling
	if n := req.ContentLength; n > 0 {
		buf.Grow(int(min(n, bodyPresize)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(req.Body, maxBodyBytes+1)); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if buf.Len() > maxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxBodyBytes))
		return
	}
	preq, err := ParsePredictRequest(buf.Bytes())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Bind, predict and label against ONE pinned version: a hot swap must not
	// run version n+1 on inputs ordered by version n's signature, nor name its
	// outputs by n's aliases. The pin is dropped before the reply is written,
	// so a slow reader cannot hold up the old version's drain.
	m, pin, err := s.reg.acquire(name)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	inputs, err := bindInputs(m.Sig, preq)
	if err != nil {
		pin.Done()
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// The request's context carries the client's deadline (and cancels on
	// disconnect): a request that expires while queued in the micro-batcher
	// errors out instead of occupying rows in someone else's batch.
	outputs, err := m.PredictContext(req.Context(), inputs)
	pin.Done()
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case req.Context().Err() != nil:
			status = http.StatusGatewayTimeout
		case errors.Is(err, errShuttingDown):
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, err)
		return
	}
	resp := PredictResponse{Model: name, Version: m.Version, Outputs: make(map[string]RespTensor, len(outputs))}
	for i, out := range outputs {
		alias := m.Sig.Outputs[i].Alias
		if at := nonFinite(out); at >= 0 {
			httpError(w, http.StatusInternalServerError,
				fmt.Errorf("serving: output %q value %d is %v, which JSON cannot carry", alias, at, out.FloatAt(at)))
			return
		}
		resp.Outputs[alias] = EncodeTensor(out)
	}
	writeJSON(w, resp)
}

// nonFinite returns the index of t's first infinite or NaN element, or -1.
func nonFinite(t *tensor.Tensor) int {
	if dt := t.DType(); dt == tensor.Float32 || dt == tensor.Float64 {
		for i := range t.NumElements() {
			if f := t.FloatAt(i); math.IsInf(f, 0) || math.IsNaN(f) {
				return i
			}
		}
	}
	return -1
}

// bindInputs types the request's raw tensors against the signature,
// positionally ordered for Model.Predict.
func bindInputs(sig Signature, preq *PredictRequest) ([]*tensor.Tensor, error) {
	if len(preq.Inputs) != len(sig.Inputs) {
		return nil, fmt.Errorf("serving: signature %q wants %d inputs, request has %d", sig.Name, len(sig.Inputs), len(preq.Inputs))
	}
	inputs := make([]*tensor.Tensor, len(sig.Inputs))
	for i, spec := range sig.Inputs {
		rt, ok := preq.Inputs[spec.Alias]
		if !ok {
			return nil, fmt.Errorf("serving: request is missing input %q", spec.Alias)
		}
		t, err := rt.Bind(spec)
		if err != nil {
			return nil, err
		}
		inputs[i] = t
	}
	return inputs, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v) // it fails only on a non-finite float, which handlePredict refuses first
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
