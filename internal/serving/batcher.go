package serving

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/tensor"
)

// The adaptive micro-batcher: concurrent predict requests are stacked along
// axis 0 and executed as ONE pooled-executor step, and the fetched rows are
// scattered back to the waiting callers. Load decides how many share a step,
// not a timer: while fewer than GOMAXPROCS batches are executing, a request
// dispatches at once with whoever else is already waiting; when every slot is
// busy, requests accumulate until a running batch finishes, the batch holds
// maxBatch rows, or its oldest request has queued for the whole window — a cap
// on queueing, never a wait imposed on an idle server. The slot count is the
// processor count because a step is CPU-bound: one slot serialises independent
// callers behind one large request (4 831 req/s on serve_http against ~6 000),
// more only split batches that cannot run any sooner.

// batchRequest is one caller's predict inside the batcher.
type batchRequest struct {
	ctx    context.Context
	inputs []*tensor.Tensor
	rows   int
	out    chan batchResult
}

type batchResult struct {
	outputs []*tensor.Tensor
	err     error
}

type batcher struct {
	run      func([]*tensor.Tensor) ([]*tensor.Tensor, error)
	maxBatch int
	window   time.Duration
	slots    int // batches that may execute before new requests start to queue

	submit   chan *batchRequest
	finished chan struct{} // one value per dispatched batch that has returned
	stop     chan struct{}
	done     sync.WaitGroup // the collector and every batch it dispatched
}

func newBatcher(run func([]*tensor.Tensor) ([]*tensor.Tensor, error), maxBatch int, window time.Duration) *batcher {
	b := &batcher{
		run:      run,
		maxBatch: maxBatch,
		window:   window,
		slots:    runtime.GOMAXPROCS(0),
		submit:   make(chan *batchRequest),
		finished: make(chan struct{}),
		stop:     make(chan struct{}),
	}
	b.done.Add(1)
	go b.collect()
	return b
}

// do submits one request and blocks until its rows come back or its
// context expires. An abandoned request still resolves: the result channel
// is buffered, and the collector hands it a deadline error at dispatch
// time instead of wasting batch rows on an answer nobody is waiting for.
func (b *batcher) do(ctx context.Context, inputs []*tensor.Tensor, rows int) ([]*tensor.Tensor, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("serving: request expired before batching: %w", err)
	}
	if rows >= b.maxBatch {
		// Already at the batch cap: stacking could only split it.
		return b.run(inputs)
	}
	req := &batchRequest{ctx: ctx, inputs: inputs, rows: rows, out: make(chan batchResult, 1)}
	select {
	case b.submit <- req:
	case <-ctx.Done():
		return nil, fmt.Errorf("serving: request expired before batching: %w", ctx.Err())
	case <-b.stop:
		return nil, errShuttingDown
	}
	select {
	case res := <-req.out:
		return res.outputs, res.err
	case <-ctx.Done():
		return nil, fmt.Errorf("serving: request expired in the batch queue: %w", ctx.Err())
	}
}

var errShuttingDown = errors.New("serving: model is shutting down") // the batcher is closing

// collect is the batcher's single collector goroutine: it owns batch
// assembly and the dispatch policy, while execution happens in per-batch
// goroutines so the next batch accumulates while the previous ones run
// (concurrent steps of one pooled session).
func (b *batcher) collect() {
	defer b.done.Done()
	var (
		batch    []*batchRequest // the forming batch
		rows     int             // rows in batch
		inFlight int             // dispatched batches that have not returned
		capped   bool            // batch's oldest request has queued for the whole window
	)
	// The window timer runs only while a batch is queued behind busy slots.
	timer := time.NewTimer(b.window)
	timer.Stop()
	armed := false
	flush := func() {
		inFlight++
		b.done.Add(1)
		go b.dispatch(batch)
		timer.Stop()
		batch, rows, capped, armed = nil, 0, false, false
	}
	add := func(r *batchRequest) {
		if rows+r.rows > b.maxBatch {
			flush() // as full as it will get; r opens the next batch
		}
		batch = append(batch, r)
		rows += r.rows
	}
	for {
		if len(batch) > 0 && (inFlight < b.slots || rows >= b.maxBatch || capped) {
			if rows < b.maxBatch {
				select {
				case r := <-b.submit: // going now: take along whoever is already parked
					add(r)
					continue
				default:
				}
			}
			flush()
			continue
		}
		if len(batch) > 0 && !armed {
			timer.Reset(b.window)
			armed = true
		}
		select {
		case r := <-b.submit:
			add(r)
			if len(batch) == 1 && inFlight < b.slots {
				// About to go at once. A submit hands its processor straight to
				// the collector, so callers that are runnable but have not run
				// yet are not parked yet: let them get there first, or a busy
				// single-processor server never batches at all.
				runtime.Gosched()
			}
		case <-b.finished:
			inFlight--
		case <-timer.C:
			capped = true
		case <-b.stop:
			b.done.Add(1)
			b.dispatch(batch) // never drop accepted work: the partial batch, if any, runs before exiting
			return
		}
	}
}

// dispatch stacks the batch's inputs along axis 0, runs one step, and
// scatters each fetched tensor's rows back to the callers in submission
// order. Requests whose context expired while queued are answered with
// their deadline error and dropped from the batch first — a caller that
// already gave up must not occupy rows in (or delay) everyone else's step.
func (b *batcher) dispatch(batch []*batchRequest) {
	defer func() {
		select {
		case b.finished <- struct{}{}: // frees a slot
		case <-b.stop:
		}
		b.done.Done()
	}()
	live := batch[:0]
	for _, r := range batch {
		if r.ctx != nil && r.ctx.Err() != nil {
			r.out <- batchResult{err: fmt.Errorf("serving: request expired in the batch queue: %w", r.ctx.Err())}
			continue
		}
		live = append(live, r)
	}
	if batch = live; len(batch) == 0 {
		return
	}
	if len(batch) == 1 {
		outputs, err := b.run(batch[0].inputs)
		batch[0].out <- batchResult{outputs: outputs, err: err}
		return
	}
	fail := func(err error) {
		for _, r := range batch {
			r.out <- batchResult{err: err}
		}
	}
	nIn := len(batch[0].inputs)
	stacked := make([]*tensor.Tensor, nIn)
	parts := make([]*tensor.Tensor, len(batch))
	total := 0
	sizes := make([]int, len(batch))
	for i, r := range batch {
		sizes[i] = r.rows
		total += r.rows
	}
	for i := 0; i < nIn; i++ {
		for j, r := range batch {
			parts[j] = r.inputs[i]
		}
		t, err := tensor.Concat(tensor.New, parts, 0)
		if err != nil {
			fail(fmt.Errorf("serving: stacking batch input %d: %w", i, err))
			return
		}
		stacked[i] = t
	}
	outputs, err := b.run(stacked)
	if err != nil {
		fail(err)
		return
	}
	split := make([][]*tensor.Tensor, len(batch))
	for i := range split {
		split[i] = make([]*tensor.Tensor, len(outputs))
	}
	for j, out := range outputs {
		if out.Rank() == 0 || out.Shape()[0] != total {
			fail(fmt.Errorf("serving: batched output %d has shape %v, want %d rows — signature is not batchable", j, out.Shape(), total))
			return
		}
		rows, err := tensor.Split(tensor.New, out, 0, sizes)
		if err != nil {
			fail(fmt.Errorf("serving: scattering batched output %d: %w", j, err))
			return
		}
		for i := range batch {
			split[i][j] = rows[i]
		}
	}
	for i, r := range batch {
		r.out <- batchResult{outputs: split[i]}
	}
}

// close stops the collector and returns once it and every batch it
// dispatched have returned — a caller that gave up on its request does not
// take its batch out of run with it, and the session under run must outlive
// every step. Any request racing the shutdown is either rejected at submit or
// executed by the collector's final partial dispatch — never dropped.
func (b *batcher) close() {
	close(b.stop)
	b.done.Wait()
}
