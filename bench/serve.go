package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/serving"
	"repro/internal/tensor"
	"repro/tf"
)

// The two serving workloads put one frozen model behind tfserve's default
// options (max-batch 32, window 2 ms) in opposite regimes. serve_http sends
// JSON predicts over nproc keep-alive connections to a real net/http
// listener: concurrency is too low for batching to help, so JSON decode and
// encode, net/http and the batch-window wait dominate. serve_burst calls
// Registry.PredictContext in-process on a seeded Poisson schedule: no JSON,
// no sockets, many requests in flight, so the micro-batcher and concurrent
// steps of the pooled session do the work.

const (
	serveWidth, serveHiddenLayers, serveOutputs = 64, 4, 8
	serveModelName                              = "bench"
	servePoolSize                               = 64
	serveBigRows                                = 16   // the 25 % of requests that carry 16 rows; the rest carry 1
	serveTol                                    = 1e-4 // batched rows may take another matmul path than the reference
)

// tfserve's defaults (cmd/tfserve flags -max-batch-size, -batch-window).
var serveOptions = serving.ModelOptions{MaxBatch: 32, Window: 2 * time.Millisecond}

// serveRequest is one pooled predict with its reference answer.
type serveRequest struct {
	rows  int
	input *tf.Tensor
	body  []byte    // the JSON predict body, for serve_http
	want  []float32 // a direct core.Session run of the frozen graph
}

// serveSpec describes a serving workload.
type serveSpec struct {
	name     string
	overHTTP bool
}

// buildServeGraph builds and initializes the model to freeze.
func buildServeGraph(e *env) (sess *tf.Session, x, logits tf.Output, err error) {
	g := tf.NewGraph()
	x = g.Placeholder("x", tf.Float32, tf.Shape{1, serveWidth})
	widths := []int{serveWidth}
	for i := 0; i < serveHiddenLayers; i++ {
		widths = append(widths, serveWidth)
	}
	widths = append(widths, serveOutputs)
	var vars []*tf.Variable
	for i, init := range denseInit(e.rng("serve/init"), widths) {
		vars = append(vars, g.NewVariableFromTensor(fmt.Sprintf("serve/p%d", i), init))
	}
	logits = mlpLayers(g, x, vars)
	if sess, err = tf.NewSession(g); err != nil {
		return nil, x, logits, err
	}
	if err = sess.RunTargets(g.InitOp()); err != nil {
		sess.Close()
		return nil, x, logits, err
	}
	return sess, x, logits, nil
}

func freezeServeModel(sess *tf.Session, x, logits tf.Output) (*tf.Frozen, error) {
	return tf.Freeze(sess,
		[]tf.SigTensor{{Alias: "x", Output: x}},
		[]tf.SigTensor{{Alias: "logits", Output: logits}},
		tf.FreezeOptions{BatchDim: true})
}

// serveRequests draws the seeded request pool — 75 % 1-row, 25 % 16-row —
// and computes each reference answer with a direct core.Session run of the
// frozen graph, one request at a time, no batcher in the way.
func serveRequests(e *env, frozen *tf.Frozen) ([]serveRequest, error) {
	sess, ends, err := frozen.Session()
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	ref, in, out := sess.Core(), ends["x"].Unwrap(), ends["logits"].Unwrap()
	r := e.rng("serve/requests")
	// Exactly a quarter of the pool is big, in seeded order: were each
	// request's size drawn on its own, the share of 16-row requests (13× the
	// JSON of a 1-row one) would itself vary ±20 % from seed to seed.
	big := make([]bool, servePoolSize)
	for _, i := range r.Perm(servePoolSize)[:servePoolSize/4] {
		big[i] = true
	}
	pool := make([]serveRequest, servePoolSize)
	for i := range pool {
		rows := 1
		if big[i] {
			rows = serveBigRows
		}
		input := uniform(r, tf.Shape{rows, serveWidth}, -1, 1)
		res, err := ref.Run(map[graph.Endpoint]*tensor.Tensor{in: input}, []graph.Endpoint{out}, nil)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		values := make([]any, len(input.Float32s()))
		for j, v := range input.Float32s() {
			values[j] = v
		}
		body, err := json.Marshal(serving.PredictRequest{Inputs: map[string]serving.RawTensor{
			"x": {Shape: []int{rows, serveWidth}, Values: values}}})
		if err != nil {
			return nil, err
		}
		pool[i] = serveRequest{rows: rows, input: input, body: body, want: res[0].Float32s()}
	}
	return pool, nil
}

// served is a brought-up serving workload.
type served struct {
	spec   *serveSpec
	root   string
	frozen *tf.Frozen
	reg    *serving.Registry
	pool   []serveRequest
	next   atomic.Int64

	// serve_http only.
	srv      *http.Server
	serveErr chan error
	client   *http.Client
	url      string
}

func (s *served) request() *serveRequest {
	return &s.pool[int(s.next.Add(1)-1)%len(s.pool)]
}

func (s *served) op(c opCtx) error {
	if s.spec.overHTTP {
		return s.predictHTTP(c, s.request())
	}
	return s.predictDirect(c, s.request())
}

// predictDirect calls the registry in-process.
func (s *served) predictDirect(c opCtx, req *serveRequest) error {
	var outs []*tensor.Tensor
	err := c.timed("serving.Registry.PredictContext", func() error {
		var err error
		outs, _, err = s.reg.PredictContext(context.Background(), serveModelName, []*tensor.Tensor{req.input})
		return err
	})
	if err != nil {
		return err
	}
	if len(outs) != 1 || outs[0].DType() != tensor.Float32 {
		return fmt.Errorf("%s: predict returned %d outputs", s.spec.name, len(outs))
	}
	return checkValues(s.spec.name, outs[0].Float32s(), req.want)
}

// httpReply is the part of serving.PredictResponse the check needs, with
// the values typed so decoding does not box every element.
type httpReply struct {
	Outputs map[string]struct {
		Shape  []int     `json:"shape"`
		Values []float32 `json:"values"`
	} `json:"outputs"`
}

func (s *served) predictHTTP(c opCtx, req *serveRequest) error {
	var payload []byte
	err := c.timed("http.roundtrip", func() error {
		resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(req.body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if payload, err = io.ReadAll(resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: HTTP %d: %s", s.spec.name, resp.StatusCode, payload)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return c.timed("check", func() error {
		var reply httpReply
		if err := json.Unmarshal(payload, &reply); err != nil {
			return fmt.Errorf("%s: bad response: %w", s.spec.name, err)
		}
		return checkValues(s.spec.name, reply.Outputs["logits"].Values, req.want)
	})
}

func checkValues(name string, got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: response has %d values, reference %d", name, len(got), len(want))
	}
	for i := range got {
		if !closeTo(float64(got[i]), float64(want[i]), serveTol) {
			return fmt.Errorf("%s: response value %d is %g, reference %g", name, i, got[i], want[i])
		}
	}
	return nil
}

func (s *served) close() {
	if s.srv != nil {
		stopHTTP(s.srv, s.client, s.serveErr)
	}
	s.reg.Close()
	os.RemoveAll(s.root) // error dropped: the run's scratch directory is removed at exit anyway
}

// bringUp builds the workload cold: graph → session → init → freeze →
// export → registry load and warm → (listener) → first predict.
func (s *serveSpec) bringUp(e *env) (instance, setupTimes, error) {
	st := setupTimes{layerMs: map[string]float64{}}
	t0 := time.Now()
	sess, x, logits, err := buildServeGraph(e)
	if err != nil {
		return nil, setupTimes{}, err
	}
	defer sess.Close()
	st.layerMs["tf.build_ms"] = since(t0)
	t0 = time.Now()
	frozen, err := freezeServeModel(sess, x, logits)
	if err != nil {
		return nil, setupTimes{}, err
	}
	st.layerMs["tf.freeze_ms"] = since(t0)
	root, err := os.MkdirTemp(e.tmp, "models-")
	if err != nil {
		return nil, setupTimes{}, err
	}
	if err := frozen.Export(root, serveModelName, 1); err != nil {
		return nil, setupTimes{}, err
	}
	t0 = time.Now()
	reg := serving.NewRegistry(root, serveOptions)
	if err := reg.LoadAll(); err != nil {
		return nil, setupTimes{}, err
	}
	st.layerMs["serving.load_ms"] = since(t0)
	inst := &served{spec: s, root: root, frozen: frozen, reg: reg}
	if s.overHTTP {
		if inst.srv, inst.client, inst.url, inst.serveErr, err = serveHTTPOn(reg, e.procs); err != nil {
			inst.close()
			return nil, setupTimes{}, err
		}
	}
	// The request pool and its reference answers are the load generator's
	// preparation, not the served system's bring-up: keep them off the clock.
	pause := time.Now()
	if inst.pool, err = serveRequests(e, frozen); err != nil {
		inst.close()
		return nil, setupTimes{}, err
	}
	st.offClock = time.Since(pause)
	if err := inst.op(opCtx{}); err != nil { // the first predict
		inst.close()
		return nil, setupTimes{}, err
	}
	return inst, st, nil
}

// verify value-checks one pass over the whole request pool (every later
// response is checked too, inside op).
func (s *serveSpec) verify(e *env, inst instance) error {
	for range inst.(*served).pool {
		if err := inst.op(opCtx{}); err != nil {
			return err
		}
	}
	return nil
}

func serveHTTP() *workload {
	s := &serveSpec{name: "serve_http", overHTTP: true}
	return &workload{name: s.name, drivers: func(e *env) int { return e.procs },
		bringUp: s.bringUp, verify: s.verify, layers: s.layers}
}

func serveBurst() *workload {
	s := &serveSpec{name: "serve_burst"}
	return &workload{name: s.name, drivers: oneDriver, openLoop: true,
		bringUp: s.bringUp, verify: s.verify, layers: s.layers}
}
