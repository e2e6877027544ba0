package rendezvous

import (
	"sync"
	"testing"
	"time"

	"repro/internal/ops"
	"repro/internal/tensor"
)

var never = make(chan struct{})

func TestSendThenRecv(t *testing.T) {
	r := NewLocal()
	v := ops.Value{Tensor: tensor.Scalar(3)}
	if err := r.Send("k", v); err != nil {
		t.Fatal(err)
	}
	got, err := r.Recv("k", never)
	if err != nil || got.Tensor.FloatAt(0) != 3 {
		t.Fatalf("Recv = %v, %v", got, err)
	}
	if r.Pending() != 0 {
		t.Errorf("entry leaked: %d", r.Pending())
	}
}

// TestRecvIntoCopiesIntoAlloc: with an allocator the receiver gets the value
// in a buffer of its own, which it may recycle and rewrite; the sender's
// tensor is left as it was. Recv, as a task serving a peer uses it, hands on
// the sender's.
func TestRecvIntoCopiesIntoAlloc(t *testing.T) {
	r := NewLocal()
	sent := tensor.FromFloat32s(tensor.Shape{3}, []float32{1, 2, 3})
	buf := tensor.New(tensor.Float32, tensor.Shape{3})
	for _, key := range []string{"a", "b"} {
		if err := r.Send(key, ops.Value{Tensor: sent}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.RecvInto("a", func(tensor.DType, tensor.Shape) *tensor.Tensor { return buf }, never)
	if err != nil || got.Tensor != buf || got.Tensor.FloatAt(2) != 3 {
		t.Fatalf("RecvInto = %v, %v; want the sent values in the alloc's buffer", got.Tensor, err)
	}
	buf.Float32s()[0] = 99
	if sent.FloatAt(0) != 1 {
		t.Errorf("writing the received buffer changed the sender's tensor: %v", sent)
	}
	if got, _ := r.Recv("b", never); got.Tensor != sent {
		t.Errorf("Recv = %p, want the sender's tensor %p", got.Tensor, sent)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	r := NewLocal()
	got := make(chan ops.Value, 1)
	go func() {
		v, _ := r.Recv("k", never)
		got <- v
	}()
	select {
	case <-got:
		t.Fatal("recv completed before send")
	case <-time.After(5 * time.Millisecond):
	}
	if err := r.Send("k", ops.Value{Tensor: tensor.Scalar(1)}); err != nil {
		t.Fatal(err)
	}
	v := <-got
	if v.Tensor.FloatAt(0) != 1 {
		t.Errorf("recv = %v", v)
	}
}

func TestDuplicateSendFails(t *testing.T) {
	r := NewLocal()
	if err := r.Send("k", ops.Value{}); err != nil {
		t.Fatal(err)
	}
	if err := r.Send("k", ops.Value{}); err == nil {
		t.Error("duplicate send accepted")
	}
}

func TestAbortUnblocksRecv(t *testing.T) {
	r := NewLocal()
	abort := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		_, err := r.Recv("k", abort)
		errs <- err
	}()
	time.Sleep(2 * time.Millisecond)
	close(abort)
	if err := <-errs; err != ErrAborted {
		t.Errorf("recv after abort: %v", err)
	}
}

func TestCleanupStepWakesWaiters(t *testing.T) {
	r := NewLocal()
	errs := make(chan error, 1)
	go func() {
		_, err := r.Recv("step 7;a;b;x", never)
		errs <- err
	}()
	time.Sleep(2 * time.Millisecond)
	r.CleanupStep("step 7;")
	if err := <-errs; err != ErrAborted {
		t.Errorf("recv after cleanup: %v", err)
	}
	// Cleanup also reclaims buffered values of that step only.
	r.Send("step 8;a;b;x", ops.Value{})
	r.Send("step 9;a;b;x", ops.Value{})
	r.CleanupStep("step 8;")
	if r.Pending() != 1 {
		t.Errorf("pending = %d, want 1", r.Pending())
	}
}

func TestConcurrentSendRecvPairs(t *testing.T) {
	r := NewLocal()
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		key := "step 1;a;b;" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		wg.Add(2)
		go func(k string, v float32) {
			defer wg.Done()
			if err := r.Send(k, ops.Value{Tensor: tensor.Scalar(v)}); err != nil {
				t.Error(err)
			}
		}(key, float32(i))
		go func(k string, want float64) {
			defer wg.Done()
			v, err := r.Recv(k, never)
			if err != nil || v.Tensor.FloatAt(0) != want {
				t.Errorf("recv %s = %v, %v", k, v, err)
			}
		}(key, float64(i))
	}
	wg.Wait()
	if r.Pending() != 0 {
		t.Errorf("leaked %d entries", r.Pending())
	}
}
