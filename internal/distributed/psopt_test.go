package distributed

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// pushTestWorker stands up a bare PS task holding one initialized variable
// w = [1, 2].
func pushTestWorker(t *testing.T) *Worker {
	t.Helper()
	w := NewWorker("ps", 0, nil)
	v := w.Device().Resources().FindOrCreateVariable("w", tensor.Float32, tensor.Shape{2})
	if err := v.Assign(tensor.FromFloat32s(tensor.Shape{2}, []float32{1, 2})); err != nil {
		t.Fatal(err)
	}
	return w
}

func wValue(t *testing.T, w *Worker) []float32 {
	t.Helper()
	snap := w.Device().Resources().SnapshotVariables()["w"]
	if snap == nil {
		t.Fatal("variable w missing")
	}
	return snap.Float32s()
}

func sgdPush(origin string, round int64, numFresh int, g0, g1 float32) *PushGradientsReq {
	return &PushGradientsReq{
		Origin:   origin,
		Round:    round,
		NumFresh: numFresh,
		Rule:     UpdateRule{Algo: "sgd", LearningRate: 1},
		Grads: []GradientPush{{
			Name:  "w",
			Dense: tensor.FromFloat32s(tensor.Shape{2}, []float32{g0, g1}),
		}},
	}
}

// TestDuplicatePushGradientsAppliedOnce: a retransmitted push of an
// already-applied round is acknowledged immediately without re-applying —
// the (origin, round) tag is the dedup key that makes lost responses and
// duplicate deliveries harmless.
func TestDuplicatePushGradientsAppliedOnce(t *testing.T) {
	w := pushTestWorker(t)
	resp, err := w.PushGradients(sgdPush("/job:worker/task:0", 0, 1, 0.5, 0.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Round != 0 || !resp.Applied {
		t.Fatalf("first push: round %d applied %v; want round 0 applied", resp.Round, resp.Applied)
	}
	want := []float32{0.5, 1.5} // w − 1·mean
	if got := wValue(t, w); got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("after push w = %v, want %v", got, want)
	}

	// The retransmit: same origin, same round. Immediate ack, no movement.
	resp2, err := w.PushGradients(sgdPush("/job:worker/task:0", 0, 1, 0.5, 0.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Round != 0 || resp2.Applied {
		t.Fatalf("duplicate push: round %d applied %v; want stale ack for round 0", resp2.Round, resp2.Applied)
	}
	if got := wValue(t, w); got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("duplicate push moved w to %v; idempotence broken", got)
	}

	// A straggler's stale round from another origin gets the same treatment.
	resp3, err := w.PushGradients(sgdPush("/job:worker/task:1", 0, 1, 9, 9), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp3.Applied {
		t.Fatal("stale push from a straggler must not apply")
	}
	if got := wValue(t, w); got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("stale push moved w to %v", got)
	}
}

// TestDuplicatePushPendingRoundCountsOriginOnce: a duplicate that lands
// while its round is still collecting contributions must not double-count
// its origin — it joins the waiters and the round still needs the other
// worker before it applies.
func TestDuplicatePushPendingRoundCountsOriginOnce(t *testing.T) {
	w := pushTestWorker(t)
	var wg sync.WaitGroup
	push := func(origin string, g float32) {
		defer wg.Done()
		if _, err := w.PushGradients(sgdPush(origin, 0, 2, g, g), nil); err != nil {
			t.Error(err)
		}
	}
	wg.Add(2)
	go push("/job:worker/task:0", 1)
	go push("/job:worker/task:0", 1) // retransmit of the same contribution
	time.Sleep(30 * time.Millisecond)
	// Two deliveries from one origin must not complete a 2-of-n round.
	if got := wValue(t, w); got[0] != 1 || got[1] != 2 {
		t.Fatalf("round applied from a duplicated single origin: w = %v", got)
	}
	wg.Add(1)
	go push("/job:worker/task:1", 3)
	wg.Wait()
	// mean = (1+3)/2 = 2 → w = [−1, 0]. The duplicate contributed nothing.
	if got := wValue(t, w); got[0] != -1 || got[1] != 0 {
		t.Fatalf("after 2-of-n round w = %v, want [-1 0]", got)
	}
}

// TestPushGradientsAbortUnblocksWaiter: a blocked push must honor its abort
// channel (the trainer's quit), returning a non-retryable error instead of
// wedging on a round that will never complete.
func TestPushGradientsAbortUnblocksWaiter(t *testing.T) {
	w := pushTestWorker(t)
	abort := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		_, err := w.PushGradients(sgdPush("/job:worker/task:0", 0, 2, 1, 1), abort)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(abort)
	select {
	case err := <-errCh:
		if err == nil || IsRetryable(err) || !strings.Contains(err.Error(), "aborted") {
			t.Fatalf("aborted push returned %v; want a non-retryable abort error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("aborted push never returned")
	}
	if got := wValue(t, w); got[0] != 1 || got[1] != 2 {
		t.Fatalf("aborted round moved w to %v", got)
	}
}

// TestPushGradientsShutdownIsRetryable: AbortAll wakes blocked pushes
// with a retryable error, so a worker whose shard restarts re-pushes
// instead of failing the trainer.
func TestPushGradientsShutdownIsRetryable(t *testing.T) {
	w := pushTestWorker(t)
	errCh := make(chan error, 1)
	go func() {
		_, err := w.PushGradients(sgdPush("/job:worker/task:0", 0, 2, 1, 1), nil)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	w.AbortAll()
	select {
	case err := <-errCh:
		if err == nil || !IsRetryable(err) {
			t.Fatalf("push interrupted by shutdown returned %v; want retryable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown never unblocked the pending push")
	}
}

// waitContributions blocks until n origins have contributed to the shard's
// pending round.
func waitContributions(t *testing.T, w *Worker, round int64, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		w.agg.mu.Lock()
		rd := w.agg.pending[round]
		got := rd != nil && len(rd.contrib) >= n
		w.agg.mu.Unlock()
		if got {
			return
		}
	}
	t.Fatalf("round %d never collected %d contributions", round, n)
}

// TestPushGradientsRejectsMalformedPush: a push that does not fit the
// resident variables it addresses, or disagrees with its round's first
// pusher, is refused with an error — it must neither panic the shard nor
// leak into the sums the round's well-formed pushers are waiting on.
func TestPushGradientsRejectsMalformedPush(t *testing.T) {
	w := pushTestWorker(t)
	res := w.Device().Resources()
	emb := res.FindOrCreateVariable("emb", tensor.Float32, tensor.Shape{4, 2})
	if err := emb.Assign(tensor.New(tensor.Float32, tensor.Shape{4, 2})); err != nil {
		t.Fatal(err)
	}
	res.FindOrCreateVariable("cold", tensor.Float32, tensor.Shape{2}) // declared, never assigned

	f32 := func(shape tensor.Shape, v ...float32) *tensor.Tensor { return tensor.FromFloat32s(shape, v) }
	rows := func(v ...int32) *tensor.Tensor { return tensor.FromInt32s(tensor.Shape{len(v)}, v) }
	rule := UpdateRule{Algo: "sgd", LearningRate: 1}
	push := func(origin string, grads ...GradientPush) *PushGradientsReq {
		return &PushGradientsReq{Origin: origin, Round: 0, NumFresh: 2, Rule: rule, Grads: grads}
	}
	with := func(f func(*PushGradientsReq)) *PushGradientsReq {
		req := push("/job:worker/task:1", GradientPush{Name: "w", Dense: f32(tensor.Shape{2}, 3, 3)})
		f(req)
		return req
	}
	bad := []struct {
		name string
		req  *PushGradientsReq
		want string
	}{
		{"unknown variable", push("b", GradientPush{Name: "nope", Dense: f32(tensor.Shape{2}, 1, 1)}), "unknown variable"},
		{"uninitialized variable", push("b", GradientPush{Name: "cold", Dense: f32(tensor.Shape{2}, 1, 1)}), "uninitialized"},
		{"dense dtype", push("b", GradientPush{Name: "w", Dense: tensor.FromFloat64s(tensor.Shape{2}, []float64{1, 1})}), "the variable is"},
		{"dense element count", push("b", GradientPush{Name: "w", Dense: f32(tensor.Shape{3}, 1, 1, 1)}), "the variable is"},
		{"neither dense nor sparse", push("b", GradientPush{Name: "w"}), "either a dense tensor or"},
		{"dense and sparse", push("b", GradientPush{Name: "emb", Dense: f32(tensor.Shape{4, 2}, make([]float32, 8)...),
			Indices: rows(1), Values: f32(tensor.Shape{1, 2}, 1, 1)}), "either a dense tensor or"},
		{"indices without values", push("b", GradientPush{Name: "emb", Indices: rows(1)}), "either a dense tensor or"},
		{"sparse row width", push("b", GradientPush{Name: "emb", Indices: rows(1), Values: f32(tensor.Shape{1, 3}, 1, 1, 1)}), "the variable is"},
		{"sparse value dtype", push("b", GradientPush{Name: "emb", Indices: rows(1),
			Values: tensor.FromFloat64s(tensor.Shape{1, 2}, []float64{1, 1})}), "the variable is"},
		{"float indices", push("b", GradientPush{Name: "emb", Indices: f32(tensor.Shape{1}, 1), Values: f32(tensor.Shape{1, 2}, 1, 1)}), "the variable is"},
		{"row past the end", push("b", GradientPush{Name: "emb", Indices: rows(4), Values: f32(tensor.Shape{1, 2}, 1, 1)}), "names row 4"},
		{"negative row", push("b", GradientPush{Name: "emb", Indices: rows(-1), Values: f32(tensor.Shape{1, 2}, 1, 1)}), "names row -1"},
		{"dense where the round holds sparse", push("b", GradientPush{Name: "emb", Dense: f32(tensor.Shape{4, 2}, make([]float32, 8)...)}), "mixes dense and sparse"},
		{"variable named twice", push("b", GradientPush{Name: "w", Dense: f32(tensor.Shape{2}, 1, 1)},
			GradientPush{Name: "w", Dense: f32(tensor.Shape{2}, 1, 1)}), "twice"},
		{"bad gradient after a good one", push("b", GradientPush{Name: "w", Dense: f32(tensor.Shape{2}, 100, 100)},
			GradientPush{Name: "emb", Indices: rows(9), Values: f32(tensor.Shape{1, 2}, 1, 1)}), "names row 9"},
		{"rule disagrees with the round", with(func(r *PushGradientsReq) { r.Rule.LearningRate = 2 }), "first pusher"},
		{"NumFresh disagrees with the round", with(func(r *PushGradientsReq) { r.NumFresh = 1 }), "first pusher"},
		{"unknown rule", with(func(r *PushGradientsReq) { r.Rule.Algo = "lbfgs" }), "unknown update rule"},
		{"NumFresh zero", with(func(r *PushGradientsReq) { r.NumFresh = 0 }), "NumFresh"},
	}

	// A malformed first pusher must not open the round.
	if _, err := w.PushGradients(bad[3].req, nil); err == nil {
		t.Fatal("malformed first push accepted")
	}
	if n := len(w.agg.pending); n != 0 {
		t.Fatalf("rejected first push left %d pending rounds", n)
	}

	first := make(chan error, 1)
	go func() {
		_, err := w.PushGradients(push("/job:worker/task:0",
			GradientPush{Name: "w", Dense: f32(tensor.Shape{2}, 1, 1)},
			GradientPush{Name: "emb", Indices: rows(1), Values: f32(tensor.Shape{1, 2}, 1, 1)}), nil)
		first <- err
	}()
	waitContributions(t, w, 0, 1)
	for _, tc := range bad {
		_, err := w.PushGradients(tc.req, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	// The round is exactly as the first pusher left it: the second
	// well-formed contribution completes it with the mean of the two.
	if _, err := w.PushGradients(push("/job:worker/task:1",
		GradientPush{Name: "w", Dense: f32(tensor.Shape{2}, 3, 3)},
		GradientPush{Name: "emb", Indices: rows(1, 2), Values: f32(tensor.Shape{2, 2}, 3, 3, 2, 2)}), nil); err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if got := wValue(t, w); got[0] != -1 || got[1] != 0 { // [1,2] − mean(1,3)
		t.Errorf("w = %v after the round, want [-1 0]: a rejected push leaked into the sums", got)
	}
	want := f32(tensor.Shape{4, 2}, 0, 0, -2, -2, -1, -1, 0, 0) // row 1: −(1+3)/2, row 2: −2/2
	if got := res.SnapshotVariables()["emb"]; !got.Equal(want) {
		t.Errorf("emb = %v after the round, want %v", got, want)
	}
}

// TestAggregatorRoundAllocatedBytes pins what a steady-state round allocates
// on the shard. The round sums its dense contributions and divides the sum in
// a buffer the aggregator keeps from round to round, so two pushers' Momentum
// round over a 64 Ki-element variable allocates about one variable's bytes —
// the new parameter value the rule installs — and not a fresh sum and a fresh
// mean besides.
func TestAggregatorRoundAllocatedBytes(t *testing.T) {
	const elems = 64 << 10
	shape := tensor.Shape{elems}
	w := NewWorker("ps", 0, nil)
	if err := w.Device().Resources().FindOrCreateVariable("v", tensor.Float32, shape).Assign(tensor.New(tensor.Float32, shape)); err != nil {
		t.Fatal(err)
	}
	rule := UpdateRule{Algo: "momentum", LearningRate: 0.01, Decay: 0.9}
	origins := []string{"/job:worker/task:0", "/job:worker/task:1"}
	grads := make([]*tensor.Tensor, len(origins))
	for i := range grads {
		data := make([]float32, elems)
		for j := range data {
			data[j] = float32(i+1) / 1024
		}
		grads[i] = tensor.FromFloat32s(shape, data)
	}
	round := func(r int64) {
		errs := make([]error, len(origins))
		var wg sync.WaitGroup
		for i, origin := range origins {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = w.PushGradients(&PushGradientsReq{Origin: origin, Round: r, NumFresh: len(origins),
					Rule: rule, Grads: []GradientPush{{Name: "v", Dense: grads[i]}}}, nil)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// The first rounds compile the rule, initialize the velocity and leave
	// the round's buffer on the spare list.
	round(0)
	round(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round(2)
	runtime.ReadMemStats(&after)
	varBytes := uint64(elems * 4)
	if got := after.TotalAlloc - before.TotalAlloc; got > varBytes*5/4 {
		t.Errorf("a steady-state round allocated %d bytes on the shard, over 1.25× the variable's %d", got, varBytes)
	}
}

// TestAbortedPushKeepsItsValues: a push that aborts while its round waits
// for others leaves its contribution in the round, and the pusher may reuse
// its tensors as soon as the call returns — a recycled step output is
// overwritten by the next step. The round must apply the values as pushed.
func TestAbortedPushKeepsItsValues(t *testing.T) {
	const a, b = "/job:worker/task:0", "/job:worker/task:1"
	rule := UpdateRule{Algo: "sgd", LearningRate: 1}
	// abortAfterAccept pushes req, aborts it once the round has taken it,
	// and then overwrites its tensors.
	abortAfterAccept := func(t *testing.T, w *Worker, req *PushGradientsReq, overwrite func()) {
		t.Helper()
		abort := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			_, err := w.PushGradients(req, abort)
			done <- err
		}()
		waitContributions(t, w, 0, 1)
		close(abort)
		if err := <-done; err == nil || !strings.Contains(err.Error(), "aborted") {
			t.Fatalf("aborted push returned %v", err)
		}
		overwrite()
	}
	t.Run("dense", func(t *testing.T) {
		w := pushTestWorker(t)
		first := sgdPush(a, 0, 2, 1, 1)
		abortAfterAccept(t, w, first, func() {
			for i := range first.Grads[0].Dense.Float32s() {
				first.Grads[0].Dense.Float32s()[i] = 1000
			}
		})
		if _, err := w.PushGradients(sgdPush(b, 0, 2, 3, 3), nil); err != nil {
			t.Fatal(err)
		}
		if got := wValue(t, w); got[0] != -1 || got[1] != 0 { // [1,2] − (1+3)/2
			t.Errorf("w = %v, want [-1 0]: the round read the aborted push's buffer after it returned", got)
		}
	})
	t.Run("sparse", func(t *testing.T) {
		w := pushTestWorker(t)
		emb := w.Device().Resources().FindOrCreateVariable("emb", tensor.Float32, tensor.Shape{4, 2})
		if err := emb.Assign(tensor.New(tensor.Float32, tensor.Shape{4, 2})); err != nil {
			t.Fatal(err)
		}
		sparse := func(origin string, rows []int32, values ...float32) *PushGradientsReq {
			return &PushGradientsReq{Origin: origin, Round: 0, NumFresh: 2, Rule: rule, Grads: []GradientPush{{Name: "emb",
				Indices: tensor.FromInt32s(tensor.Shape{len(rows)}, rows), Values: tensor.FromFloat32s(tensor.Shape{len(rows), 2}, values)}}}
		}
		first := sparse(a, []int32{1}, 1, 1)
		abortAfterAccept(t, w, first, func() {
			first.Grads[0].Indices.Int32s()[0] = 3
			first.Grads[0].Values.Float32s()[0], first.Grads[0].Values.Float32s()[1] = 1000, 1000
		})
		if _, err := w.PushGradients(sparse(b, []int32{1, 2}, 3, 3, 2, 2), nil); err != nil {
			t.Fatal(err)
		}
		want := tensor.FromFloat32s(tensor.Shape{4, 2}, []float32{0, 0, -2, -2, -1, -1, 0, 0}) // row 1: −(1+3)/2, row 2: −2/2
		if got := w.Device().Resources().SnapshotVariables()["emb"]; !got.Equal(want) {
			t.Errorf("emb = %v, want %v: the round read the aborted push's tensors after it returned", got, want)
		}
	})
}
