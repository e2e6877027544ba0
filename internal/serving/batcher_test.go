package serving

// White-box battery for the load-aware micro-batcher: immediate dispatch on
// an idle batcher, coalescing behind busy slots, the window as a cap,
// overflow carry, abandoned requests, shutdown. What a batch does is pinned
// by a run function the test holds shut and opens, never by how long
// something happens to take. Everything here runs under -race at -cpu 1,2,4
// (make race-hot): the slot count is GOMAXPROCS, and the collector/dispatcher
// split is exactly the kind of code the race detector earns its keep on.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
)

// patience bounds every wait for something that must happen; reaching it is
// a hang, reported as a failure.
const patience = 10 * time.Second

// gatedRun is a run function the test can hold: each batch records its row
// count, announces itself on entered and then blocks until the test lets one
// batch through (a send on release) or all of them (close).
type gatedRun struct {
	reply   func([]*tensor.Tensor) ([]*tensor.Tensor, error) // nil echoes the inputs
	entered chan int
	release chan struct{}

	mu      sync.Mutex
	batches []int
}

func newGatedRun() *gatedRun {
	// entered is buffered past any test's batch count so that run never
	// blocks on a test that is not listening.
	return &gatedRun{entered: make(chan int, 256), release: make(chan struct{})}
}

func (g *gatedRun) run(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	rows := inputs[0].Shape()[0]
	g.mu.Lock()
	g.batches = append(g.batches, rows)
	g.mu.Unlock()
	g.entered <- rows
	<-g.release
	if g.reply != nil {
		return g.reply(inputs)
	}
	return inputs, nil
}

func (g *gatedRun) sizes() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.batches...)
}

// awaitEntered returns the row count of the next batch to enter run.
func (g *gatedRun) awaitEntered(t *testing.T) int {
	t.Helper()
	select {
	case rows := <-g.entered:
		return rows
	case <-time.After(patience):
		t.Fatal("no batch entered run")
		return 0
	}
}

// enqueue hands one request straight to the collector, as do would, and
// returns its result channel. The send completing means the collector holds
// the request — the ordering a test needs and do cannot report.
func enqueue(t *testing.T, ctx context.Context, b *batcher, in *tensor.Tensor) chan batchResult {
	t.Helper()
	req := &batchRequest{ctx: ctx, inputs: []*tensor.Tensor{in}, rows: in.Shape()[0], out: make(chan batchResult, 1)}
	select {
	case b.submit <- req:
	case <-time.After(patience):
		t.Fatal("collector did not accept a request")
	}
	return req.out
}

func await(t *testing.T, out chan batchResult) batchResult {
	t.Helper()
	select {
	case res := <-out:
		return res
	case <-time.After(patience):
		t.Fatal("request was never answered")
		return batchResult{}
	}
}

// holdSlots occupies every executor slot of b with a one-row batch parked
// inside g.run, so that whatever arrives next has to queue.
func holdSlots(t *testing.T, b *batcher, g *gatedRun) []chan batchResult {
	t.Helper()
	outs := make([]chan batchResult, b.slots)
	for i := range outs {
		outs[i] = enqueue(t, context.Background(), b, rowTensor(-1))
		if rows := g.awaitEntered(t); rows != 1 {
			t.Fatalf("slot-holding batch has %d rows, want 1", rows)
		}
	}
	return outs
}

// TestBatcherLoneRequestNeverWaits is the policy in one line: with a slot
// free, a request runs now. The window is an hour; the old collector armed it
// for every first request and would sit this one out.
func TestBatcherLoneRequestNeverWaits(t *testing.T) {
	g := newGatedRun()
	close(g.release)
	b := newBatcher(g.run, 64, time.Hour)
	defer b.close()
	for i := 0; i < 3; i++ {
		out, err := b.do(context.Background(), []*tensor.Tensor{rowTensor(float32(i))}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := out[0].Float32s()[0]; got != float32(i) {
			t.Fatalf("request %d came back as %v", i, got)
		}
	}
	if sizes := g.sizes(); len(sizes) != 3 || sizes[0] != 1 || sizes[1] != 1 || sizes[2] != 1 {
		t.Errorf("batches = %v, want three singletons", sizes)
	}
}

// TestBatcherCoalescesBehindBusySlots: with every slot executing, callers
// accumulate, and the completion of a running batch — not the window, which
// is an hour — dispatches all of them as ONE step. Batch size tracks arrivals
// per service time; it does not collapse to 1.
func TestBatcherCoalescesBehindBusySlots(t *testing.T) {
	g := newGatedRun()
	b := newBatcher(g.run, 64, time.Hour)
	defer b.close()
	held := holdSlots(t, b, g)

	const callers = 9
	outs := make([]chan batchResult, callers)
	for i := range outs {
		outs[i] = enqueue(t, context.Background(), b, rowTensor(float32(100+i)))
	}
	select {
	case rows := <-g.entered:
		t.Fatalf("a %d-row batch dispatched with every slot busy, the batch not full and the window an hour away", rows)
	default:
	}
	g.release <- struct{}{} // one running batch finishes
	if rows := g.awaitEntered(t); rows != callers {
		t.Fatalf("the freed slot took a batch of %d rows, want all %d queued callers in one step", rows, callers)
	}
	close(g.release)
	for i, out := range outs {
		res := await(t, out)
		if res.err != nil {
			t.Fatalf("caller %d: %v", i, res.err)
		}
		if got := res.outputs[0].Float32s(); len(got) != testModelCols || got[0] != float32(100+i) {
			t.Fatalf("caller %d got %v, want its own row of %d (cross-wired)", i, got, 100+i)
		}
	}
	for _, out := range held {
		if res := await(t, out); res.err != nil {
			t.Fatal(res.err)
		}
	}
}

// TestBatcherScattersOwnRows is the cross-wiring check under load: 16
// concurrent callers each submit distinct rows through do and must get
// exactly those back — any slip in Concat order vs Split order hands a caller
// someone else's prediction. run yields while it holds its slot, so batches
// do form; no batch may exceed the cap.
func TestBatcherScattersOwnRows(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	b := newBatcher(func(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
		mu.Lock()
		sizes = append(sizes, inputs[0].Shape()[0])
		mu.Unlock()
		runtime.Gosched()
		return inputs, nil
	}, 8, time.Hour)
	defer b.close()

	const goroutines = 16
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				v := float32(g*1000 + i)
				out, err := b.do(context.Background(), []*tensor.Tensor{rowTensor(v)}, 1)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				if got := out[0].Shape(); got[0] != 1 || got[1] != testModelCols {
					errs <- fmt.Errorf("goroutine %d iter %d: row shape %v", g, i, got)
					return
				}
				for _, x := range out[0].Float32s() {
					if x != v {
						errs <- fmt.Errorf("goroutine %d iter %d: got row of %v, want %v (cross-wired)", g, i, x, v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := 0
	for _, n := range sizes {
		if n > 8 {
			t.Fatalf("batch of %d rows exceeds maxBatch 8", n)
		}
		total += n
	}
	if total != goroutines*iters {
		t.Errorf("run saw %d rows, callers sent %d", total, goroutines*iters)
	}
}

// TestBatcherWindowBoundsLatency: the window is the cap on queueing. With
// every slot held and never released, a queued request still reaches run —
// after the window, not before.
func TestBatcherWindowBoundsLatency(t *testing.T) {
	g := newGatedRun()
	const window = 20 * time.Millisecond
	b := newBatcher(g.run, 64, window)
	defer b.close()
	defer close(g.release)
	holdSlots(t, b, g)

	start := time.Now()
	enqueue(t, context.Background(), b, rowTensor(1))
	enqueue(t, context.Background(), b, rowTensor(2))
	if rows := g.awaitEntered(t); rows != 2 {
		t.Fatalf("the cap dispatched %d rows, want both queued requests", rows)
	}
	if waited := time.Since(start); waited < window {
		t.Errorf("queued batch dispatched after %v with every slot busy; the window is %v", waited, window)
	}
}

// TestBatcherBoundsConcurrentBatches: short of the cap firing (the window is
// an hour) or a batch filling (it cannot: maxBatch exceeds everything sent),
// no more batches are inside run at once than there are slots.
func TestBatcherBoundsConcurrentBatches(t *testing.T) {
	var inside, peak atomic.Int32
	b := newBatcher(func(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
		n := inside.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		runtime.Gosched() // let the collector run while this slot is taken
		inside.Add(-1)
		return inputs, nil
	}, 1<<20, time.Hour)
	defer b.close()

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				out, err := b.do(context.Background(), []*tensor.Tensor{rowTensor(float32(g))}, 1)
				if err != nil {
					t.Error(err)
					return
				}
				if out[0].Float32s()[0] != float32(g) {
					t.Errorf("goroutine %d got foreign row %v", g, out[0].Float32s()[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := int(peak.Load()); got > b.slots {
		t.Errorf("%d batches were inside run at once, slots = %d", got, b.slots)
	}
}

// TestBatcherFullRequestBypasses: a request already at maxBatch rows runs
// directly, without passing through the collector — here every slot is held,
// so a collected request would queue for the hour.
func TestBatcherFullRequestBypasses(t *testing.T) {
	g := newGatedRun()
	b := newBatcher(g.run, 4, time.Hour)
	defer b.close()
	holdSlots(t, b, g)
	done := make(chan error, 1)
	go func() {
		_, err := b.do(context.Background(), []*tensor.Tensor{rowsTensor(0, 4)}, 4)
		done <- err
	}()
	if rows := g.awaitEntered(t); rows != 4 {
		t.Fatalf("bypassing request entered run with %d rows, want 4", rows)
	}
	close(g.release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(patience):
		t.Fatal("full-size request queued behind the collector")
	}
}

// TestBatcherOverflowCarry: when a request would overflow the filling batch,
// the batch dispatches and the request opens the next one — rows are never
// split across steps, and nothing waits for a slot once it cannot grow.
func TestBatcherOverflowCarry(t *testing.T) {
	g := newGatedRun()
	b := newBatcher(g.run, 4, time.Hour)
	defer b.close()
	holdSlots(t, b, g)

	outs := make([]chan batchResult, 4)
	for i := range outs {
		outs[i] = enqueue(t, context.Background(), b, rowsTensor(float32(i*10), 3))
	}
	// Each arrival pushed its predecessor out; the last one is still queued.
	for i := 0; i < 3; i++ {
		if rows := g.awaitEntered(t); rows != 3 {
			t.Fatalf("3-row requests into a 4-cap batcher must dispatch alone, got a %d-row step", rows)
		}
	}
	close(g.release)
	for i, out := range outs {
		res := await(t, out)
		if res.err != nil {
			t.Fatalf("request %d: %v", i, res.err)
		}
		vals := res.outputs[0].Float32s()
		for r := 0; r < 3; r++ {
			if vals[r*testModelCols] != float32(i*10+r) {
				t.Fatalf("request %d row %d came back as %v", i, r, vals[r*testModelCols])
			}
		}
	}
	for _, n := range g.sizes()[b.slots:] {
		if n != 3 {
			t.Errorf("a %d-row step ran; 3-row requests must never share or split", n)
		}
	}
}

// TestBatcherErrorFansOut: a failed step must deliver the error to every
// caller in the batch, not strand any of them.
func TestBatcherErrorFansOut(t *testing.T) {
	boom := fmt.Errorf("executor exploded")
	g := newGatedRun()
	g.reply = func([]*tensor.Tensor) ([]*tensor.Tensor, error) { return nil, boom }
	b := newBatcher(g.run, 64, time.Hour)
	defer b.close()
	holdSlots(t, b, g)
	outs := make([]chan batchResult, 8)
	for i := range outs {
		outs[i] = enqueue(t, context.Background(), b, rowTensor(1))
	}
	close(g.release)
	for i, out := range outs {
		if res := await(t, out); !errors.Is(res.err, boom) {
			t.Errorf("caller %d in a failed batch got %v", i, res.err)
		}
	}
}

// TestBatcherRejectsNonBatchableOutput: if the model's output does not carry
// the stacked batch dimension, every caller of a stacked batch gets a clear
// error instead of someone else's rows.
func TestBatcherRejectsNonBatchableOutput(t *testing.T) {
	g := newGatedRun()
	// A scalar no matter how many rows went in.
	g.reply = func([]*tensor.Tensor) ([]*tensor.Tensor, error) { return []*tensor.Tensor{tensor.Scalar(7)}, nil }
	b := newBatcher(g.run, 64, time.Hour)
	defer b.close()
	holdSlots(t, b, g)
	outs := make([]chan batchResult, 8)
	for i := range outs {
		outs[i] = enqueue(t, context.Background(), b, rowTensor(1))
	}
	close(g.release)
	for i, out := range outs {
		if res := await(t, out); res.err == nil {
			t.Errorf("caller %d of an unsplittable 8-row batch got a nil error", i)
		}
	}
}

// TestBatcherExpiredRequestFreesBatchSlot: a request whose context dies
// while it is queued behind busy slots must (1) unblock its caller with the
// context error at once, and (2) be dropped from the batch at dispatch — the
// step that eventually runs must not spend rows computing an answer nobody
// is waiting for.
func TestBatcherExpiredRequestFreesBatchSlot(t *testing.T) {
	g := newGatedRun()
	b := newBatcher(g.run, 8, time.Hour)
	defer b.close()

	// Pre-expired context: rejected before it ever reaches the collector.
	expired, cancelExpired := context.WithCancel(context.Background())
	cancelExpired()
	if _, err := b.do(expired, []*tensor.Tensor{rowTensor(1)}, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-expired request: err = %v, want context.Canceled", err)
	}
	if sizes := g.sizes(); len(sizes) != 0 {
		t.Fatalf("pre-expired request reached the model: batches %v", sizes)
	}

	held := holdSlots(t, b, g)
	// A caller inside do gives up while no slot can take its request: do
	// returns although nothing has run, whether the cancel caught it queued
	// or still submitting.
	ctx, cancel := context.WithCancel(context.Background())
	gaveUp := make(chan error, 1)
	go func() {
		_, err := b.do(ctx, []*tensor.Tensor{rowTensor(98)}, 1)
		gaveUp <- err
	}()
	// A request the collector provably holds is abandoned the same way.
	doomed := enqueue(t, ctx, b, rowTensor(99))
	cancel()
	select {
	case err := <-gaveUp:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned caller: err = %v, want context.Canceled", err)
		}
	case <-time.After(patience):
		t.Fatal("abandoned caller never unblocked")
	}
	// A live request joins the same queued batch; when a slot frees, the
	// abandoned requests are filtered out and only this row executes.
	live := enqueue(t, context.Background(), b, rowTensor(7))
	g.release <- struct{}{}
	if rows := g.awaitEntered(t); rows != 1 {
		t.Fatalf("a %d-row step ran, want exactly the 1 live row (expired rows must not run)", rows)
	}
	close(g.release)
	if res := await(t, doomed); !errors.Is(res.err, context.Canceled) {
		t.Errorf("abandoned request was answered %v, want its context error", res.err)
	}
	res := await(t, live)
	if res.err != nil {
		t.Fatalf("live request sharing a batch with expired ones: %v", res.err)
	}
	if got := res.outputs[0].Float32s()[0]; got != 7 {
		t.Fatalf("live request got row of %v, want 7", got)
	}
	for _, out := range held {
		await(t, out)
	}
	if sizes := g.sizes(); len(sizes) != b.slots+1 {
		t.Errorf("batches %v: want the %d slot holders and the live row, nothing else", sizes, b.slots)
	}
}

// goroutinesSettleAt waits for goroutines that have already been told to
// exit to be gone, and fails if more than base remain.
func goroutinesSettleAt(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(patience); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the batcher started:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestBatcherCloseJoinsInFlightBatches: close must not return while a batch
// it dispatched is still inside run — Model.Close releases the session next.
// The only caller cancels mid-step, so nothing else is waiting on the batch:
// the registry's in-flight count is already zero when close is called.
func TestBatcherCloseJoinsInFlightBatches(t *testing.T) {
	base := runtime.NumGoroutine()
	g := newGatedRun()
	var returned atomic.Bool
	g.reply = func(in []*tensor.Tensor) ([]*tensor.Tensor, error) {
		returned.Store(true)
		return in, nil
	}
	b := newBatcher(g.run, 8, time.Hour)

	ctx, cancel := context.WithCancel(context.Background())
	gaveUp := make(chan error, 1)
	go func() {
		_, err := b.do(ctx, []*tensor.Tensor{rowTensor(1)}, 1)
		gaveUp <- err
	}()
	g.awaitEntered(t) // the step is executing
	cancel()
	if err := <-gaveUp; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller cancelled mid-step: err = %v, want context.Canceled", err)
	}

	joined := make(chan bool, 1)
	go func() {
		b.close()
		joined <- returned.Load()
	}()
	<-b.stop // close is under way, and has nothing left to wait for but the step
	select {
	case <-joined:
		t.Fatal("close returned while its batch was still inside run")
	case <-time.After(20 * time.Millisecond):
	}
	close(g.release)
	select {
	case stepDone := <-joined:
		if !stepDone {
			t.Fatal("close returned before the step it dispatched")
		}
	case <-time.After(patience):
		t.Fatal("close never returned")
	}
	goroutinesSettleAt(t, base)
}

// TestBatcherCloseNeverDropsAcceptedWork hammers do() while the batcher
// shuts down: every call must return — a result or a shutdown error —
// never hang on a dropped request, and close leaves no goroutine behind.
func TestBatcherCloseNeverDropsAcceptedWork(t *testing.T) {
	base := runtime.NumGoroutine()
	echo := func(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) { return inputs, nil }
	b := newBatcher(echo, 8, time.Millisecond)

	const goroutines = 16
	var wg sync.WaitGroup
	warm := make(chan struct{}, goroutines)
	for c := 0; c < goroutines; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				out, err := b.do(context.Background(), []*tensor.Tensor{rowTensor(float32(c))}, 1)
				if err != nil {
					if !errors.Is(err, errShuttingDown) {
						t.Errorf("goroutine %d: %v", c, err)
					}
					return // shutdown reached this caller
				}
				if out[0].Float32s()[0] != float32(c) {
					t.Errorf("goroutine %d got foreign row %v", c, out[0].Float32s()[0])
					return
				}
				if i == 10 {
					warm <- struct{}{}
				}
			}
		}(c)
	}
	for c := 0; c < goroutines; c++ { // every caller is mid-stream when close lands
		select {
		case <-warm:
		case <-time.After(patience):
			t.Fatal("hammer never got going")
		}
	}
	b.close()

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(patience):
		t.Fatal("a caller hung across batcher shutdown — accepted work was dropped")
	}
	goroutinesSettleAt(t, base)
}

// TestBatcherSingleProcessorStillBatches: on one processor a submit hands
// the processor straight to the collector, so at that instant nobody else is
// parked however many callers are runnable. The collector yields once before
// going at once; without that, a saturated single-processor server runs every
// request as a step of its own (measured: below unbatched throughput).
func TestBatcherSingleProcessorStillBatches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mu sync.Mutex
	largest := 0
	b := newBatcher(func(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
		mu.Lock()
		largest = max(largest, inputs[0].Shape()[0])
		mu.Unlock()
		return inputs, nil
	}, 64, time.Hour)
	defer b.close()

	const callers = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start // every caller is runnable at once
			out, err := b.do(context.Background(), []*tensor.Tensor{rowTensor(float32(c))}, 1)
			if err != nil {
				t.Error(err)
			} else if got := out[0].Float32s()[0]; got != float32(c) {
				t.Errorf("caller %d got row of %v", c, got)
			}
		}(c)
	}
	close(start)
	wg.Wait()
	if largest < 2 {
		t.Errorf("%d simultaneous callers on one processor ran as %d-row steps; none shared a batch", callers, largest)
	}
}
