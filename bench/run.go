package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// setup_s is the median of the cold bring-ups that fit in setupBudget of
	// set-up time, at least minBringUps and at most maxBringUps of them: a
	// bring-up takes 3 ms (serving) to 80 ms (a TCP cluster), and a median of
	// five 3 ms samples moved by a third between runs of one build.
	minBringUps, maxBringUps = 5, 25
	setupBudget              = time.Second
	// A run's measured time is cut into this many slices. The machine this
	// was calibrated on stalls for tens of milliseconds several times a
	// second (hypervisor steal): of many short slices some are left
	// undisturbed, of a few long ones none.
	sliceCount = 10
	// A traced run splits --seconds: untraced pass, traced pass, probes.
	untracedShare, tracedShare = 0.3, 0.2
)

// run is one workload's state across the phases of a benchmark run.
type run struct {
	w    *workload
	e    *env
	inst instance
	ref  *reference

	goroutines int                  // before the first bring-up
	setupS     []float64            // per bring-up, at machine speed 1
	setupMs    []map[string]float64 // per bring-up, by per-layer metric
	errs       []error              // verification and probe failures: the run is not correct

	slices   []sliceStats // untraced measured slices
	traced   sliceStats   // the traced pass
	layer    metrics      // per-layer metrics set by the probes
	rssMB    []float64    // resident set, sampled every rssEvery of the untraced slices
	leaked   int
	tracedTo string // Chrome-trace file written, if any
}

// prepare brings the workload up cold several times (once with -short),
// keeps the last instance for measuring, and runs the correctness gate on
// it.
func (r *run) prepare() error {
	r.w.enter(r.e)
	r.goroutines = settledGoroutines()
	r.ref = newReference()
	var spent time.Duration
	for {
		runtime.GC() // each bring-up starts from a collected heap, as a fresh process would
		gaps := r.ref.runs(refWindow / 2)
		t0 := time.Now()
		inst, st, err := r.w.bringUp(r.e)
		if err != nil {
			return fmt.Errorf("%s: bring-up: %w", r.w.name, err)
		}
		took := time.Since(t0) - st.offClock
		spent += took
		// Every workload's bring-up is processor work: read it, too, at
		// machine speed 1.
		gaps = append(gaps, r.ref.runs(refWindow/2)...)
		r.setupS = append(r.setupS, took.Seconds()*speedAround(gaps, refWindow/2-1))
		r.setupMs = append(r.setupMs, st.layerMs)
		if n := len(r.setupS); r.e.short || n == maxBringUps || (n >= minBringUps && spent >= setupBudget) {
			r.inst = inst
			break
		}
		inst.close()
	}
	if err := r.w.verify(r.e, r.inst); err != nil {
		r.errs = append(r.errs, err)
	}
	return nil
}

// slice measures the workload for dur with tracing off and appends the
// slice.
func (r *run) slice(dur time.Duration, idx int) {
	r.w.enter(r.e)
	stop := make(chan struct{})
	sampled := make(chan []float64)
	go func() {
		var rss []float64
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				rss = append(rss, residentMB())
			case <-stop:
				sampled <- rss
				return
			}
		}
	}()
	r.slices = append(r.slices, r.measure(dur, fmt.Sprintf("%d", idx), nil))
	close(stop)
	r.rssMB = append(r.rssMB, <-sampled...)
}

// measure drives the workload for dur the way it is driven: open loop,
// scaled closed loop, or plain closed loop.
func (r *run) measure(dur time.Duration, arrivals string, tr *tracer) sliceStats {
	switch {
	case r.w.openLoop:
		return runOpen(r.inst, dur, r.e.rng(r.w.name+"/arrivals/"+arrivals), tr)
	case r.w.scaled:
		return runScaled(r.inst, dur, tr, r.ref)
	default:
		return runClosed(r.inst, r.w.drivers(r.e), dur, tr)
	}
}

// trace runs the traced pass for dur — spans recorded in memory at every
// boundary the harness owns — writes them as Chrome-trace JSON, then runs
// the workload's layer probes within budget.
func (r *run) trace(dur, budget time.Duration, outDir string) {
	r.w.enter(r.e)
	tr := newTracer()
	hooks, _ := r.inst.(traced)
	if hooks != nil {
		hooks.beginTrace()
	}
	r.traced = r.measure(dur, "traced", tr)
	if hooks != nil {
		hooks.endTrace(tr)
	}
	spans := tr.snapshot()
	adopt(spans)
	r.tracedTo = filepath.Join(outDir, "trace-"+r.w.name+".json")
	if err := writeChromeTrace(r.tracedTo, spans); err != nil {
		r.errs = append(r.errs, err)
	}

	r.layer = metrics{}
	in := probeInput{budget: budget, untraced: pool(r.slices), spans: spans}
	if err := r.w.layers(r.e, r.inst, in, r.layer); err != nil {
		r.errs = append(r.errs, fmt.Errorf("%s: layer probes: %w", r.w.name, err))
	}
}

// finish tears the workload down and counts goroutines it left behind.
func (r *run) finish() {
	if r.inst == nil {
		return
	}
	r.inst.close()
	r.inst = nil
	deadline := time.Now().Add(2 * time.Second)
	for {
		r.leaked = max(0, runtime.NumGoroutine()-r.goroutines)
		if r.leaked == 0 || time.Now().After(deadline) {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// settledGoroutines counts goroutines once the transient ones are gone:
// executor pool workers park for 200 ms before exiting, and the readers of
// closed connections need a moment to see the close.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		time.Sleep(50 * time.Millisecond)
		if now := runtime.NumGoroutine(); now < n {
			n, i = now, 0
		}
	}
	return n
}

// pool merges slices into one, for tail percentiles and sample counts.
func pool(slices []sliceStats) sliceStats {
	var p sliceStats
	for _, s := range slices {
		p.attempted += s.attempted
		p.failed += s.failed
		p.missed += s.missed
		p.completed += s.completed
		p.seconds += s.seconds
		p.cpuMs += s.cpuMs
		p.sysMs += s.sysMs
		p.gcPauseMs += s.gcPauseMs
		p.latMs = append(p.latMs, s.latMs...)
		p.scaledMs = append(p.scaledMs, s.scaledMs...)
		p.scaledCPUMs = append(p.scaledCPUMs, s.scaledCPUMs...)
		p.speed = append(p.speed, s.speed...)
		if p.firstErr == nil {
			p.firstErr = s.firstErr
		}
	}
	return p
}

// rate is the slice's correct ops per second as ops_per_s counts them.
func (r *run) rate(s sliceStats) float64 {
	if r.w.scaled {
		return scaledRate(s)
	}
	return opsPerS(s)
}

func opsPerS(s sliceStats) float64 {
	if s.seconds == 0 {
		return 0
	}
	return float64(s.okOps()) / s.seconds
}

// endToEndMetrics reduces the untraced slices to the end-to-end metrics.
func (r *run) endToEndMetrics() metrics {
	m := metrics{"rss_mb": median(r.rssMB), "setup_s": median(r.setupS)}
	if r.w.scaled {
		r.scaledMetrics(m)
	} else {
		r.bestSliceMetrics(m)
	}
	return m
}

// scaledMetrics reads a scaled workload's timed metrics off every measured
// op of the run, each at machine speed 1 (reference.go): the median latency,
// and rate and CPU per op without the slowest stallShare of the ops.
func (r *run) scaledMetrics(m metrics) {
	all := pool(r.slices)
	if all.attempted > 0 {
		m["ok_share"] = float64(all.okOps()) / float64(all.attempted)
	}
	m["ops_per_s"] = scaledRate(all)
	m["op_p50_ms"] = median(all.scaledMs)
	m["cpu_ms_per_op"] = trimmedMean(all.scaledCPUMs, stallShare)
	m["max_ok_rate"] = m["ops_per_s"] // a closed loop offers only what it completes
}

// bestSliceMetrics reads a serving workload's timed metrics off its best
// slice — highest rate, lowest median latency, lowest CPU per op. Most of a
// request's latency is the batch window, a timer, so the machine's speed
// does not scale it; but interference only ever slows a slice down, and the
// least-disturbed slice is the one figure two runs of one build agree on
// (README.md, "Noise and bounds").
func (r *run) bestSliceMetrics(m metrics) {
	var rate, p50, cpu, ok, maxOK []float64
	for _, s := range r.slices {
		rate = append(rate, opsPerS(s))
		if s.cpuPerOpMs > 0 {
			cpu = append(cpu, s.cpuPerOpMs)
		}
		if s.attempted > 0 {
			ok = append(ok, float64(s.okOps())/float64(s.attempted))
		}
		if r.w.openLoop {
			// Median latency is read at the middle rung, timed from each
			// request's due time.
			if rg := s.rungs[p50Rung]; len(rg.latMs) > 0 {
				p50 = append(p50, median(rg.latMs))
			}
			maxOK = append(maxOK, s.maxOKRate())
		} else {
			if len(s.latMs) > 0 { // a slice too short to hold one op says nothing of latency
				p50 = append(p50, median(s.latMs))
			}
			// A closed loop offers only what it completes: the rate it
			// sustained is the highest rate it is known to meet.
			maxOK = append(maxOK, opsPerS(s))
		}
	}
	m["ops_per_s"] = highest(rate)
	m["op_p50_ms"] = lowest(p50)
	m["cpu_ms_per_op"] = lowest(cpu)
	m["ok_share"] = highest(ok)
	m["max_ok_rate"] = highest(maxOK)
}

// stallShare is the share of a scaled workload's ops, the slowest, that
// ops_per_s and cpu_ms_per_op leave out: the ops a host stall fell on, which
// the reference beside them did not see.
const stallShare = 0.1

// scaledRate is a scaled slice's correct ops per second of driver time at
// machine speed 1.
func scaledRate(s sliceStats) float64 {
	mean := trimmedMean(s.scaledMs, stallShare)
	if mean == 0 || s.attempted == 0 {
		return 0
	}
	return 1000 / mean * float64(s.okOps()) / float64(s.attempted)
}

// layerMetrics completes the probes' metrics with the set-up breakdown
// (median over the bring-ups) and the driver's own diagnostics.
func (r *run) layerMetrics() metrics {
	m := metrics{}
	for k, v := range r.layer {
		m[k] = v
	}
	keys := map[string]bool{}
	for _, st := range r.setupMs {
		for k := range st {
			keys[k] = true
		}
	}
	for k := range keys {
		var vals []float64
		for _, st := range r.setupMs {
			vals = append(vals, st[k])
		}
		m[k] = median(vals)
	}

	all := pool(r.slices)
	sorted := sortedCopy(all.latMs)
	m["driver.samples"] = float64(len(sorted))
	m["driver.op_p95_ms"] = supportedPercentile(sorted, 0.95)
	m["driver.op_p99_ms"] = supportedPercentile(sorted, 0.99)
	m["driver.raw_op_p50_ms"] = percentile(sorted, 0.5)
	m["driver.machine_speed"] = median(all.speed)
	var rates, late []float64
	for _, s := range r.slices {
		rates = append(rates, r.rate(s))
		for _, rg := range s.rungs {
			late = append(late, rg.lateMs...)
		}
	}
	m["driver.slice_spread"] = spread(rates)
	m["driver.late_p99_ms"] = supportedPercentile(sortedCopy(late), 0.99)
	if all.seconds > 0 {
		m["driver.gc_pause_ms_per_s"] = all.gcPauseMs / all.seconds
	}
	if cpu := all.cpuMs + all.sysMs; cpu > 0 {
		m["driver.cpu_sys_share"] = all.sysMs / cpu
	}
	m["driver.goroutines_leaked"] = float64(r.leaked)
	untraced := highest(rates)
	if r.w.scaled {
		untraced = scaledRate(all)
	}
	if untraced > 0 && r.traced.seconds > 0 {
		m["driver.tracing_overhead_share"] = 1 - r.rate(r.traced)/untraced
	}
	return m
}

// passes lists the untraced slices and the traced pass (empty when there was
// none).
func (r *run) passes() []sliceStats {
	return append(append([]sliceStats(nil), r.slices...), r.traced)
}

// attempted and failed total the untraced slices (and the traced pass, when
// there was one): what the run tried, and what failed, was refused or
// returned a wrong output. Requests that only missed the open-loop latency
// limit lower ok_share and ops_per_s instead.
func (r *run) counts() (attempted, failed int) {
	all := pool(r.passes())
	return all.attempted, all.failed
}

// correct reports that the gate passed, the probes ran, and no op failed
// for a reason other than missing the open-loop latency limit.
func (r *run) correct() bool {
	if len(r.errs) > 0 {
		return false
	}
	for _, s := range r.passes() {
		if s.firstErr != nil {
			return false
		}
	}
	return true
}

// describeSlices prints each slice, and each open-loop rung of it, to
// standard error: the diagnostics behind the end-to-end values.
func (r *run) describeSlices() {
	for i, s := range r.slices {
		fmt.Fprintf(os.Stderr, "tfbench: %s slice %d: %.1f ops/s p50 %.3f ms cpu %.3f ms/op",
			r.w.name, i, opsPerS(s), median(s.latMs), s.cpuPerOpMs)
		if r.w.scaled {
			fmt.Fprintf(os.Stderr, "; machine speed %.2f, at speed 1: %.1f ops/s p50 %.3f ms cpu %.3f ms/op",
				median(s.speed), scaledRate(s), median(s.scaledMs), trimmedMean(s.scaledCPUMs, stallShare))
		}
		fmt.Fprintln(os.Stderr)
		for _, rg := range s.rungs {
			sorted := sortedCopy(rg.latMs)
			fmt.Fprintf(os.Stderr, "tfbench: %s slice %d rung %.0f/s: sent %d ok %d p50 %.2f ms p%.0f %.2f ms late p99 %.2f ms backlog %d\n",
				r.w.name, i, rg.rate, rg.sent, rg.ok, percentile(sorted, 0.5), 100*rg.tailP, rg.tailMs,
				percentile(sortedCopy(rg.lateMs), 0.99), rg.backlog)
		}
	}
}

// complain prints what made the run incorrect.
func (r *run) complain() {
	for _, err := range r.errs {
		fmt.Fprintf(os.Stderr, "tfbench: %v\n", err)
	}
	for _, s := range r.passes() {
		if s.firstErr != nil {
			fmt.Fprintf(os.Stderr, "tfbench: %s: %d of %d ops failed, first: %v\n", r.w.name, s.failed, s.attempted, s.firstErr)
		}
	}
}
