package distributed

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// TestMethodTableCoversTransport keeps "the five calls are named once" true:
// every method of Transport but Close has exactly one entry in the methods
// table that answers to its name, and every entry names a method of
// Transport. A sixth call added to the interface and forgotten in the table
// (or a table entry whose call the stub cannot make) fails here.
func TestMethodTableCoversTransport(t *testing.T) {
	entries := map[string]int{}
	for m := range methods {
		if methods[m].serve == nil {
			continue
		}
		if methods[m].newReq == nil || methods[m].newRep == nil {
			t.Errorf("methods[%d] (%s) cannot make its request or its reply", m, Method(m))
		}
		entries[Method(m).String()]++
	}
	tr, st := reflect.TypeOf((*Transport)(nil)).Elem(), reflect.TypeOf(stub{})
	for i := 0; i < tr.NumMethod(); i++ {
		name := tr.Method(i).Name
		if name == "Close" {
			continue
		}
		if entries[name] != 1 {
			t.Errorf("Transport.%s has %d entries in the methods table, want 1", name, entries[name])
		}
		delete(entries, name)
		if _, ok := st.MethodByName(name); !ok {
			t.Errorf("the stub has no %s", name)
		}
	}
	for name := range entries {
		t.Errorf("methods table entry %q names no method of Transport", name)
	}
}

// TestTransportsHaveIdentity: resolving a task twice gives one transport, not
// two that behave alike, and every transport the package hands out can key a
// map — bench/wire.go keys one on them, and would have grown by an entry per
// RPC on an in-process cluster when each resolve returned a fresh pointer.
func TestTransportsHaveIdentity(t *testing.T) {
	const task = "/job:ps/task:0"
	spec := ClusterSpec{"ps": {""}}
	inproc := NewInProcCluster(spec)
	srv, err := Serve(inproc.Workers[task], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spec["ps"][0] = srv.Addr()
	plan, err := NewChaosPlan(ChaosConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, resolver := range map[string]Resolver{
		"in-process":            inproc.Resolver(),
		"TCP":                   TCPResolver(spec),
		"chaos over in-process": plan.WrapResolver(inproc.Resolver()),
		"chaos over TCP":        plan.WrapResolver(TCPResolver(spec)),
	} {
		a, err := resolver(task)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer a.Close()
		b, err := resolver(task)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a != b {
			t.Errorf("%s: two resolves of %s gave two transports (%T)", name, task, a)
		}
		seen := map[Transport]bool{a: true} // a type that cannot be compared panics here
		if seen[b] = true; len(seen) != 1 {
			t.Errorf("%s: one task took %d map entries", name, len(seen))
		}
	}
}

// TestOnTaskRetriesOnlyWhatMayComeBack pins the retry loop Master.endStep and
// train.Replicated share: one more resolve per attempt, over as soon as the
// call succeeds or fails with an error that is not IsRetryable.
func TestOnTaskRetriesOnlyWhatMayComeBack(t *testing.T) {
	down := fmt.Errorf("dial: %w", ErrUnavailable)
	for _, tc := range []struct {
		name     string
		resolve  []error // per attempt; nil resolves
		call     []error // per call made
		want     error
		resolves int
	}{
		{"first try", []error{nil}, []error{nil}, nil, 1},
		{"resolver recovers", []error{down, down, nil}, []error{nil}, nil, 3},
		{"call recovers", []error{nil, nil}, []error{down, nil}, nil, 2},
		{"budget spent", []error{down, down, down, down}, nil, down, 4},
		{"not retryable", []error{nil}, []error{errors.New("malformed push")}, errors.New("malformed push"), 1},
	} {
		resolves, calls := 0, 0
		resolver := Resolver(func(string) (Transport, error) {
			resolves++
			return NewTransport(inProc{}), tc.resolve[resolves-1]
		})
		err := resolver.OnTask("/job:ps/task:0", 3, func(Transport) error {
			calls++
			return tc.call[calls-1]
		})
		if fmt.Sprint(err) != fmt.Sprint(tc.want) || resolves != tc.resolves || calls != len(tc.call) {
			t.Errorf("%s: %v after %d resolves and %d calls, want %v after %d and %d",
				tc.name, err, resolves, calls, tc.want, tc.resolves, len(tc.call))
		}
	}
}

// conformanceTask is a fresh PS task holding w = [1, 2], reached in-process or
// over a loopback connection of its own.
func conformanceTask(t *testing.T, overTCP bool) (*Worker, Resolver) {
	t.Helper()
	w := pushTestWorker(t)
	if !overTCP {
		return w, func(string) (Transport, error) { return NewTransport(inProc{w}), nil }
	}
	srv, err := Serve(w, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return w, TCPResolver(ClusterSpec{"ps": {srv.Addr()}})
}

// TestTransportConformance runs one script of all five calls — and of the
// three ways a call is refused — against identical tasks through every
// transport the package has: in-process, TCP, and each behind a chaos plan
// that injects nothing. Whatever a layer in front of a task does, it may not
// change a reply (compared by bits: a NaN payload, −0 and a denormal make the
// trip), an error's text or whether IsRetryable holds for it, and the chaos
// log names each call as the Transport method is named.
func TestTransportConformance(t *testing.T) {
	special := tensor.FromFloat32s(tensor.Shape{4}, []float32{
		math.Float32frombits(0x7fc54321), float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, 1.5})
	const other = "/job:other/task:0/device:CPU:0"
	closed := make(chan struct{})
	close(closed)

	type outcome struct {
		replies []any
		errs    []string
		retry   []bool // IsRetryable of each refusal
	}
	script := func(t *testing.T, w *Worker, tr Transport) (out outcome) {
		t.Helper()
		reply := func(rep any, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("call %d: %v", len(out.replies), err)
			}
			out.replies = append(out.replies, rep)
		}
		refused := func(_ any, err error) {
			t.Helper()
			if err == nil {
				t.Fatalf("refusal %d went through", len(out.errs))
			}
			out.errs = append(out.errs, err.Error())
			out.retry = append(out.retry, IsRetryable(err))
		}

		reply(nil, tr.AbortStep(&AbortStepReq{StepID: -1})) // a step no task runs

		g := graph.New()
		c := buildNode(t, g, "Const", nil, graph.NodeArgs{Name: "c", Attrs: map[string]any{"value": special}})
		buildNode(t, g, "Send", []graph.Endpoint{c.Out(0)}, graph.NodeArgs{Name: "send", Attrs: map[string]any{
			"tensor_name": "t0", "send_device": w.Device().Name(), "recv_device": other}})
		def, err := g.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		reg, err := tr.RegisterGraph(&RegisterGraphReq{GraphBytes: def, Fetches: []string{"c:0"}, Targets: []string{"send"}})
		reply(reg, err)
		// The handle names the task's incarnation, which every Worker draws anew.
		out.replies[1] = &RegisterGraphResp{Handle: strings.Replace(reg.Handle, w.incarnation, "<incarnation>", 1)}
		reply(tr.RunGraph(&RunGraphReq{Handle: reg.Handle, StepID: 7}))
		reply(tr.RecvTensor(&RecvTensorReq{Key: fmt.Sprintf("step 7;%s;%s;t0", w.Device().Name(), other)}, nil))
		reply(tr.PushGradients(sgdPush("/job:worker/task:0", 0, 1, 0.25, -0.5), nil))
		if got := wValue(t, w); got[0] != 0.75 || got[1] != 2.5 {
			t.Errorf("w = %v after the push, want [0.75 2.5]", got)
		}
		reply(nil, tr.AbortStep(&AbortStepReq{StepID: 7}))
		if n := w.LocalTensorCount(); n != 0 {
			t.Errorf("%d rendezvous entries left after the step ended", n)
		}

		// A reply belongs to the caller: writing into one changes nothing the
		// task keeps, so a later step fetches and sends what step 7 did.
		recvKey := func(step int) string { return fmt.Sprintf("step %d;%s;%s;t0", step, w.Device().Name(), other) }
		ran, err := tr.RunGraph(&RunGraphReq{Handle: reg.Handle, StepID: 10})
		reply(ran, err)
		recvd, err := tr.RecvTensor(&RecvTensorReq{Key: recvKey(10)}, nil)
		reply(recvd, err)
		ran.Fetches[0].Float32s()[3], recvd.Tensor.Float32s()[3] = 99, 99
		rerun, err := tr.RunGraph(&RunGraphReq{Handle: reg.Handle, StepID: 11})
		reply(rerun, err)
		if err := sameBits(reflect.ValueOf(rerun), reflect.ValueOf(out.replies[2])); err != nil {
			t.Errorf("RunGraph after its last reply was overwritten: %v", err)
		}
		rerecvd, err := tr.RecvTensor(&RecvTensorReq{Key: recvKey(11)}, nil)
		reply(rerecvd, err)
		if err := sameBits(reflect.ValueOf(rerecvd), reflect.ValueOf(out.replies[3])); err != nil {
			t.Errorf("RecvTensor after its last reply was overwritten: %v", err)
		}

		refused(tr.RunGraph(&RunGraphReq{Handle: "nope", StepID: 8}))
		refused(tr.RecvTensor(&RecvTensorReq{Key: fmt.Sprintf("step 9;%s;%s;never", w.Device().Name(), other)}, closed))
		refused(tr.PushGradients(&PushGradientsReq{Origin: "b", Round: 1, NumFresh: 1, Rule: UpdateRule{Algo: "sgd", LearningRate: 1},
			Grads: []GradientPush{{Name: "nope", Dense: tensor.FromFloat32s(tensor.Shape{2}, []float32{1, 1})}}}, nil))
		// Every transport refuses a request over the frame bound before the
		// task sees it.
		refused(tr.PushGradients(&PushGradientsReq{Origin: "b", Round: 1, NumFresh: 1, Rule: UpdateRule{Algo: "sgd", LearningRate: 1},
			Grads: []GradientPush{{Name: "w", Dense: tensor.New(tensor.Float32, tensor.Shape{1024})}}}, nil))
		// Retryability is a type, not a phrase: an error that merely quotes
		// ErrUnavailable's text is not retryable.
		refused(tr.PushGradients(&PushGradientsReq{Origin: "b", Round: 1, NumFresh: 1, Rule: UpdateRule{Algo: "sgd", LearningRate: 1},
			Grads: []GradientPush{{Name: ErrUnavailable.Error(), Dense: tensor.FromFloat32s(tensor.Shape{2}, []float32{1, 1})}}}, nil))
		reply(nil, tr.AbortStep(&AbortStepReq{StepID: 9})) // wakes whoever still waits for the key
		return out
	}
	calls := []string{"AbortStep", "RegisterGraph", "RunGraph", "RecvTensor", "PushGradients", "AbortStep",
		"RunGraph", "RecvTensor", "RunGraph", "RecvTensor",
		"RunGraph", "RecvTensor", "PushGradients", "PushGradients", "PushGradients", "AbortStep"}

	// The bound the script's oversized push exceeds. It holds from before the
	// first task serves to after the last is closed, because a TCP task reads
	// it on goroutines no call of the script waits for.
	defer func(old int) { maxFrame = old }(maxFrame)
	maxFrame = 4096

	var want outcome
	for _, tc := range []struct {
		name           string
		overTCP, chaos bool
	}{
		{"in-process", false, false},
		{"TCP", true, false},
		{"chaos over in-process", false, true},
		{"chaos over TCP", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, resolver := conformanceTask(t, tc.overTCP)
			plan, err := NewChaosPlan(ChaosConfig{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if tc.chaos {
				resolver = plan.WrapResolver(resolver)
			}
			tr, err := resolver(w.Task())
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			got := script(t, w, tr)
			if tc.chaos {
				var logged []string
				for _, rec := range plan.Log() {
					if rec.Kind != FaultNone || rec.Task != w.Task() {
						t.Errorf("chaos log: %+v from a plan that injects nothing into %s", rec, w.Task())
					}
					logged = append(logged, rec.Method)
				}
				if !reflect.DeepEqual(logged, calls) {
					t.Errorf("chaos logged %v, the script called %v", logged, calls)
				}
			}
			// A receive abandoned at the caller never reaches an in-process
			// task's reply and does not wait for a remote one's, so whose
			// words report it depends on the transport; that it is reported
			// as an abort does not.
			if strings.Contains(got.errs[1], "aborted") {
				got.errs[1] = "aborted"
			}
			if want.replies == nil {
				want = got
				return
			}
			for i, rep := range got.replies {
				if rep == nil || want.replies[i] == nil {
					if rep != want.replies[i] {
						t.Errorf("%s replied %v, in-process %v", calls[i], rep, want.replies[i])
					}
				} else if err := sameBits(reflect.ValueOf(rep), reflect.ValueOf(want.replies[i])); err != nil {
					t.Errorf("%s reply differs from the in-process one: %v", calls[i], err)
				}
			}
			if !reflect.DeepEqual(got.errs, want.errs) {
				t.Errorf("refusals read\n%q\nin-process they read\n%q", got.errs, want.errs)
			}
			if !reflect.DeepEqual(got.retry, want.retry) {
				t.Errorf("refusals retryable %v, in-process %v", got.retry, want.retry)
			}
		})
	}
	for i, frag := range []string{`unknown graph handle "nope"`, "aborted", "unknown variable",
		"distributed: PushGradients request: 4215-byte frame exceeds the 4096-byte limit", `unknown variable "task unavailable"`} {
		if i >= len(want.errs) || !strings.Contains(want.errs[i], frag) {
			t.Errorf("refusal %d = %q, want it to mention %q", i, want.errs, frag)
		}
	}
	if wantRetry := []bool{true, false, false, false, false}; !reflect.DeepEqual(want.retry, wantRetry) {
		t.Errorf("refusals retryable %v, want %v: only the unknown handle", want.retry, wantRetry)
	}
}

// TestWarmLookupsDoNotAllocate: what a step looks up per remote value — the
// task a rendezvous key's value comes from, and that task's transport — is
// parsed once and then costs no allocation.
func TestWarmLookupsDoNotAllocate(t *testing.T) {
	w, resolver := conformanceTask(t, true)
	const task = "/job:ps/task:0"
	if _, err := resolver(task); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := resolver(task); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a warm TCPResolver lookup allocates %v times, want 0", n)
	}
	key := "step 7;/job:ps/replica:0/task:1/device:CPU:0;" + w.Device().Name() + ";w:0"
	if src, err := w.keySourceTask(key); src != "/job:ps/task:1" || err != nil {
		t.Fatalf("keySourceTask(%q) = %q, %v", key, src, err)
	}
	if n := testing.AllocsPerRun(100, func() { w.keySourceTask(key) }); n != 0 {
		t.Errorf("keySourceTask allocates %v times on a known device, want 0", n)
	}
	for _, bad := range []string{"step 7", "step 7;/job:ps/task:1/device:CPU:0", "step 7;/job:ps/task:1/device:CPU:0;dst"} {
		if _, err := w.keySourceTask(bad); err == nil {
			t.Errorf("keySourceTask(%q) accepted a malformed key", bad)
		}
	}
}
