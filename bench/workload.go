package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"time"
)

// env is what one run of the harness shares across its workloads.
type env struct {
	seed  int64
	procs int    // min(nproc, 4): GOMAXPROCS of the serving workloads; driver goroutines and client connections never exceed it
	tmp   string // scratch directory inside the checkout, removed when the run ends
	short bool   // -short: one bring-up, probes once
}

// rng derives an independent generator for one purpose from the run's seed,
// so every input — features, labels, Zipf ids, request mix, arrivals — comes
// from -seed and adding a consumer does not shift the others' streams.
func (e *env) rng(purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewSource(e.seed*1000003 + int64(h.Sum64()>>1)))
}

// opCtx is handed to an instance with every op: where to record spans (nil
// tracer when tracing is off) and which driver issues the op.
type opCtx struct {
	tr     *tracer
	op     int64 // driver op ID, shared by every span of the op
	parent int64 // the driver's op span
	driver int
}

// lane names the Chrome-trace row of the op's driver.
func (c opCtx) lane() string { return fmt.Sprintf("driver-%d", c.driver) }

// timed runs fn as a child span of the op.
func (c opCtx) timed(name string, fn func() error) error {
	if c.tr == nil {
		return fn()
	}
	id, start := c.tr.newID(), time.Now()
	err := fn()
	c.tr.add(id, c.parent, c.op, name, c.lane(), start, time.Now())
	return err
}

// instance is one brought-up workload: a session, a cluster with its
// trainer, or a serving registry. op runs the instance's next operation
// (on its next input from the seeded pool) and returns an error when the
// operation failed or its output was wrong. close tears down everything the
// bring-up started.
type instance interface {
	op(c opCtx) error
	close()
}

// setupTimes is what one bring-up reports about where its time went.
type setupTimes struct {
	// layerMs is the per-layer breakdown in milliseconds, keyed by per-layer
	// metric name ("tf.build_ms", "train.init_ms", ...).
	layerMs map[string]float64
	// offClock is time the load generator spent preparing itself (a request
	// pool and its reference answers) in the middle of the bring-up: not the
	// system's set-up, and taken off setup_s.
	offClock time.Duration
}

// since returns the milliseconds elapsed from t0.
func since(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

// workload is one of the benchmark's fixed workloads.
type workload struct {
	name string
	// drivers is how many closed-loop driver goroutines issue ops.
	drivers func(e *env) int
	// openLoop selects seeded Poisson arrivals at fixed rungs (serve_burst).
	openLoop bool
	// scaled marks a workload whose op is processor work from end to end (a
	// training step or round), so that its time is the program's cost over
	// the machine's speed. It runs on one processor, its one driver runs the
	// reference between ops, and its timed metrics are read at machine speed
	// 1 (reference.go). The serving workloads' latency is mostly the batch
	// window, a timer; they run on env.procs processors.
	scaled bool
	// bringUp builds the workload cold: graph → session / cluster /
	// registry → init → first (compiling) op.
	bringUp func(e *env) (instance, setupTimes, error)
	// verify is the correctness gate run on the measured instance before
	// any window; it also warms the instance.
	verify func(e *env, inst instance) error
	// layers runs the per-layer probes with the workload's own graphs,
	// shapes and payloads, adding to m.
	layers func(e *env, inst instance, in probeInput, m metrics) error
}

// traced is implemented by instances that observe more than the driver's
// own spans while a traced pass runs (the wrapped Transports of a cluster).
type traced interface {
	beginTrace()
	// endTrace stops observing and adds what was seen to tr.
	endTrace(tr *tracer)
}

func oneDriver(*env) int { return 1 }

// gomaxprocs is how many processors the workload runs on: a scaled
// workload's time must not hang on where the host has put the guest's second
// vCPU.
func (w *workload) gomaxprocs(e *env) int {
	if w.scaled {
		return 1
	}
	return e.procs
}

// enter sets GOMAXPROCS for a phase of the workload.
func (w *workload) enter(e *env) { runtime.GOMAXPROCS(w.gomaxprocs(e)) }

// workloads lists the benchmark's workloads in their fixed order.
func workloads() []*workload {
	return []*workload{mlpLocal(), whileLocal(), psDenseTCP(), psSparseTCP(), serveHTTP(), serveBurst()}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metrics maps a metric name to its value; units live in units.go.
type metrics map[string]float64

// lossCheck is the training correctness gate: the loss at lossCheckStep
// must be finite, below the step-0 loss, and — for the default seed — equal
// to the golden recorded in golden.go.
const (
	lossCheckStep = 50
	goldenSeed    = 1
	goldenTol     = 1e-5
)

func checkLoss(name string, seed int64, loss0, lossN float64) error {
	if math.IsNaN(lossN) || math.IsInf(lossN, 0) {
		return fmt.Errorf("%s: loss at step %d is %v", name, lossCheckStep, lossN)
	}
	if !(lossN < loss0) {
		return fmt.Errorf("%s: loss at step %d (%.6g) is not below the step-0 loss (%.6g)", name, lossCheckStep, lossN, loss0)
	}
	if seed == goldenSeed {
		want, ok := goldenLoss[name]
		if !ok {
			return fmt.Errorf("%s: no golden loss recorded", name)
		}
		if !closeTo(lossN, want, goldenTol) {
			return fmt.Errorf("%s: loss at step %d is %.9g, golden %.9g (tolerance %g)", name, lossCheckStep, lossN, want, goldenTol)
		}
	}
	return nil
}

// closeTo reports |a−b| ≤ tol·max(1, |b|).
func closeTo(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b))
}
