package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serving"
	"repro/internal/tensor"
	"repro/tf"
)

// satCallers is how many in-process closed-loop callers serving.sat_qps
// parks in Predict: enough to keep every batch full.
const satCallers = 64

// serveHTTPOn starts a net/http server for reg on a loopback port and
// returns it with a client limited to conns keep-alive connections, the
// predict URL, and the channel Serve's return value arrives on.
func serveHTTPOn(reg *serving.Registry, conns int) (*http.Server, *http.Client, string, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", nil, err
	}
	srv := &http.Server{Handler: serving.NewServer(reg).Handler()}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}}
	url := fmt.Sprintf("http://%s/v1/models/%s:predict", ln.Addr(), serveModelName)
	return srv, client, url, done, nil
}

// stopHTTP closes the client's idle connections, shuts the server down and
// waits for Serve to return.
func stopHTTP(srv *http.Server, client *http.Client, done chan error) {
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	srv.Shutdown(ctx) // error dropped: a handler still running after 5 s shows up as a leaked goroutine
	cancel()
	<-done
}

// firstWithRows returns the first pooled request carrying the given rows.
func (s *served) firstWithRows(rows int) *serveRequest {
	for i := range s.pool {
		if s.pool[i].rows == rows {
			return &s.pool[i]
		}
	}
	return &s.pool[0]
}

// layers is the per-layer probe set of a serving workload. The pieces of one
// predict are timed one by one on a 1-row request: JSON parse, bind to the
// signature, the model step with batching off, response encode; what a lone
// request waits in the batch window; and what the HTTP round trip adds.
func (s *serveSpec) layers(e *env, inst instance, in probeInput, m metrics) error {
	sv := inst.(*served)
	share := in.budget / 12
	one, big := sv.firstWithRows(1), sv.firstWithRows(serveBigRows)
	sig := sv.frozen.Signature()

	// Window 0: the same model version, batching off.
	unbatched := serving.NewRegistry(sv.root, serving.ModelOptions{})
	if err := unbatched.LoadAll(); err != nil {
		return err
	}
	defer unbatched.Close()
	predictUs, err := p50of(share, 50, func() error {
		_, _, err := unbatched.Predict(serveModelName, []*tensor.Tensor{one.input})
		return err
	})
	if err != nil {
		return err
	}
	m["serving.predict_us"] = predictUs
	batchedUs, err := p50of(share, 20, func() error {
		_, _, err := sv.reg.Predict(serveModelName, []*tensor.Tensor{one.input})
		return err
	})
	if err != nil {
		return err
	}
	m["serving.window_wait_us"] = batchedUs - predictUs

	if s.overHTTP {
		for _, r := range []struct {
			key string
			req *serveRequest
		}{{"serving.parse_us.rows1", one}, {"serving.parse_us.rows16", big}} {
			if m[r.key], err = p50of(share/2, 50, func() error {
				_, err := serving.ParsePredictRequest(r.req.body)
				return err
			}); err != nil {
				return err
			}
		}
		preq, err := serving.ParsePredictRequest(one.body)
		if err != nil {
			return err
		}
		if m["serving.bind_us"], err = p50of(share/2, 50, func() error {
			_, err := preq.Inputs["x"].Bind(sig.Inputs[0])
			return err
		}); err != nil {
			return err
		}
		outs, version, err := unbatched.Predict(serveModelName, []*tensor.Tensor{one.input})
		if err != nil {
			return err
		}
		if m["serving.encode_us"], err = p50of(share/2, 50, func() error {
			resp := serving.PredictResponse{Model: serveModelName, Version: version,
				Outputs: map[string]serving.RespTensor{"logits": serving.EncodeTensor(outs[0])}}
			return json.NewEncoder(io.Discard).Encode(resp)
		}); err != nil {
			return err
		}
		// One connection, batching off: what net/http, the socket and the
		// client's read add to the four pieces above.
		srv, client, url, done, err := serveHTTPOn(unbatched, 1)
		if err != nil {
			return err
		}
		roundTripUs, err := p50of(share, 50, func() error {
			resp, err := client.Post(url, "application/json", bytes.NewReader(one.body))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			_, err = io.Copy(io.Discard, resp.Body)
			return err
		})
		stopHTTP(srv, client, done)
		if err != nil {
			return err
		}
		m["serving.http_overhead_us"] = roundTripUs - m["serving.parse_us.rows1"] - m["serving.bind_us"] -
			predictUs - m["serving.encode_us"]
	}

	if m["serving.sat_qps"], err = saturate(sv, 3*share); err != nil {
		return err
	}

	// Hot reload: export the same model as version 2 and let the registry
	// load, warm, swap and drain.
	if err := sv.frozen.Export(sv.root, serveModelName, 2); err != nil {
		return err
	}
	t0 := time.Now()
	if swapped, err := sv.reg.Reload(serveModelName); err != nil || !swapped {
		return fmt.Errorf("%s: reload to version 2: swapped=%t err=%v", s.name, swapped, err)
	}
	m["serving.reload_ms"] = since(t0)

	// The frozen graph's 1-row step at the tf, core and exec layers.
	sess, outs, err := sv.frozen.Session()
	if err != nil {
		return err
	}
	defer sess.Close()
	if m["tf.session_run_p50_us"], err = p50of(share, 50, func() error {
		_, err := sess.Run(map[tf.Output]*tf.Tensor{outs["x"]: one.input}, []tf.Output{outs["logits"]})
		return err
	}); err != nil {
		return err
	}
	feeds := map[graph.Endpoint]*tensor.Tensor{outs["x"].Unwrap(): one.input}
	fetches := []graph.Endpoint{outs["logits"].Unwrap()}
	cs := core.NewSession(sv.frozen.Graph(), core.Options{})
	defer cs.Close()
	if err := execProbe(cs, feeds, fetches, nil, 2*share, m); err != nil {
		return err
	}

	// Compile-time layers on a freshly frozen, not yet optimized graph.
	trained, x, logits, err := buildServeGraph(e)
	if err != nil {
		return err
	}
	defer trained.Close()
	plain, err := tf.Freeze(trained,
		[]tf.SigTensor{{Alias: "x", Output: x}}, []tf.SigTensor{{Alias: "logits", Output: logits}},
		tf.FreezeOptions{BatchDim: true, DisableOptimizations: true})
	if err != nil {
		return err
	}
	plainSess, ends, err := plain.Session()
	if err != nil {
		return err
	}
	defer plainSess.Close()
	in0, out0 := ends["x"].Unwrap(), ends["logits"].Unwrap()
	remapped, err := optimizeProbe(plain.Graph(), []graph.Endpoint{in0}, []graph.Endpoint{out0}, nil, m)
	if err != nil {
		return err
	}
	// The GraphDef a model directory holds is the optimized frozen graph.
	if err := graphDefProbe(sv.frozen.Graph(), m); err != nil {
		return err
	}
	if err := compileProbe(plain.Graph(), []graph.Endpoint{in0}, remapped, nil, m); err != nil {
		return err
	}

	var kernels []matmulCall
	for i := 0; i <= serveHiddenLayers; i++ {
		n := serveWidth
		if i == serveHiddenLayers {
			n = serveOutputs
		}
		kernels = append(kernels, matmulCall{m: 1, k: serveWidth, n: n, bias: true, relu: i < serveHiddenLayers, times: 1})
	}
	if err := kernelProbe(kernels, share, m); err != nil {
		return err
	}
	if s.overHTTP {
		return nil
	}
	return nullDispatchProbe(share, m)
}

// saturate drives the registry with satCallers closed-loop in-process
// callers on the workload's request mix and returns completed predicts per
// second: the rate burstRate is a fixed fraction of.
func saturate(sv *served, dur time.Duration) (float64, error) {
	var done atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	begin := time.Now()
	deadline := begin.Add(dur)
	for c := 0; c < satCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := sv.predictDirect(opCtx{}, sv.request()); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return 0, err
	}
	return float64(done.Load()) / time.Since(begin).Seconds(), nil
}
