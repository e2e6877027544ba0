package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// warmShare is the leading share of every slice (and of every open-loop
// rung) whose ops run but are not measured.
const warmShare = 0.1

// Open-loop constants for serve_burst. burstRate is R, calibrated once on the
// seed commit and then frozen: a third of the closed-loop saturation rate
// serving.sat_qps measures (~18 000/s). At the 60 % ISSUE.md first asked for
// the top rung sat on the edge of queueing collapse whenever the hypervisor
// took a share of the machine, and each collapse spilled into the slices
// after it — see README.md, "Calibrating R". The rungs are fractions of R; a
// rung meets the limit when its tail latency, timed from each request's due
// time, stays within latencyLimit and it leaves no backlog behind.
const (
	burstRate    = 4000.0 // requests per second at the top rung
	latencyLimit = 10 * time.Millisecond
	maxInFlight  = 4096 // beyond this a due request is refused, and counts as failed
	p50Rung      = 1    // index in burstRungs of the rung op_p50_ms is read at
)

var burstRungs = []float64{0.25, 0.5, 1.0}

// rungStats is one open-loop rung of one slice.
type rungStats struct {
	rate    float64   // offered, requests per second
	sent    int       // due in the measured part
	ok      int       // completed correctly within latencyLimit
	latMs   []float64 // from due time, of every completed request
	lateMs  []float64 // how late the generator issued each request
	backlog int       // requests still in flight when the last one was issued
	tailP   float64   // the highest percentile the sample count supports
	tailMs  float64   // latency at tailP
}

// sliceStats is one measured slice of one workload.
type sliceStats struct {
	attempted int
	failed    int       // errors, wrong outputs and refusals
	missed    int       // open loop: completed correctly, but past latencyLimit
	seconds   float64   // length of the measured part
	latMs     []float64 // per successful op
	completed int       // ops that returned a correct output, whatever their latency
	cpuMs     float64   // process user CPU over the measured part
	sysMs     float64   // process system CPU over the measured part
	// cpuPerOpMs is cpuMs per completed op. Open loop: of the top rung alone,
	// warm part and drain included — at the lower rungs most of the CPU is
	// timers and wake-ups between requests, not requests.
	cpuPerOpMs float64
	gcPauseMs  float64
	firstErr   error
	rungs      []rungStats // open loop only
	// Scaled slices only (runScaled), per successful op: latency and user CPU
	// at machine speed 1, and the machine's speed around the op.
	scaledMs, scaledCPUMs, speed []float64
}

// okOps is how many ops neither failed nor missed the limit.
func (s sliceStats) okOps() int { return s.attempted - s.failed - s.missed }

// cpuTime is the process's CPU time so far (getrusage), user and system
// apart. cpu_ms_per_op charges user time only: on the virtual machine this
// was calibrated on, the system-time cost of the same syscalls and idle
// wake-ups swung between 10 % and 40 % of the total with the host's load,
// for minutes at a time (README.md, "Noise and bounds"); the system share is
// reported beside it as driver.cpu_sys_share.
func cpuTime() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// rssEvery is how often a measured slice samples the resident set.
const rssEvery = 50 * time.Millisecond

// residentMB is the process's resident set now, in MiB: the second field of
// /proc/self/statm, in pages. 0 where there is no such file.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

func gcPause() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// opIDs numbers driver ops across a run, so spans of one op share an ID.
var opIDs atomic.Int64

// runOp issues one op under a driver span.
func runOp(inst instance, tr *tracer, driver int) (start, end time.Time, err error) {
	c := opCtx{tr: tr, op: opIDs.Add(1), parent: tr.newID(), driver: driver}
	start = time.Now()
	err = inst.op(c)
	end = time.Now()
	tr.add(c.parent, 0, c.op, "op", c.lane(), start, end)
	return start, end, err
}

// runClosed drives inst for dur with the given number of closed-loop
// drivers: each issues its next op as soon as its previous one completes.
// Ops that start in the first warmShare of the slice run but are not
// measured.
func runClosed(inst instance, drivers int, dur time.Duration, tr *tracer) sliceStats {
	begin := time.Now()
	measureFrom := begin.Add(time.Duration(float64(dur) * warmShare))
	deadline := begin.Add(dur)

	type local struct {
		attempted, failed int
		latMs             []float64
		first, last       time.Time // start of the first and end of the last measured op
		firstErr          error
	}
	locals := make([]local, drivers)
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			l := &locals[d]
			for time.Now().Before(deadline) {
				start, end, err := runOp(inst, tr, d)
				if start.Before(measureFrom) {
					continue
				}
				if l.first.IsZero() {
					l.first = start
				}
				l.last = end
				l.attempted++
				if err != nil {
					l.failed++
					if l.firstErr == nil {
						l.firstErr = err
					}
					continue
				}
				l.latMs = append(l.latMs, ms(end.Sub(start)))
			}
		}(d)
	}
	time.Sleep(time.Until(measureFrom))
	user0, sys0 := cpuTime()
	gc0 := gcPause()
	wg.Wait()
	var s sliceStats
	user1, sys1 := cpuTime()
	s.cpuMs, s.sysMs, s.gcPauseMs = ms(user1-user0), ms(sys1-sys0), ms(gcPause()-gc0)
	// The measured part runs from the first measured op's start to the last
	// one's end, so ops / seconds is exact however few ops a slice holds.
	var first, last time.Time
	for _, l := range locals {
		if !l.first.IsZero() && (first.IsZero() || l.first.Before(first)) {
			first = l.first
		}
		if l.last.After(last) {
			last = l.last
		}
		s.attempted += l.attempted
		s.failed += l.failed
		s.completed += len(l.latMs)
		s.latMs = append(s.latMs, l.latMs...)
		if s.firstErr == nil {
			s.firstErr = l.firstErr
		}
	}
	s.seconds = last.Sub(first).Seconds()
	if s.completed > 0 {
		s.cpuPerOpMs = s.cpuMs / float64(s.completed)
	}
	return s
}

// runScaled drives inst for dur with one closed-loop driver that runs the
// reference before its first op and after every op (reference.go), and
// scales each op's latency and CPU time by the machine's speed around it.
// The time the reference takes is not the workload's: the slice's seconds
// are the measured ops' durations added up, and its CPU time is theirs.
func runScaled(inst instance, dur time.Duration, tr *tracer, ref *reference) sliceStats {
	begin := time.Now()
	measureFrom := begin.Add(time.Duration(float64(dur) * warmShare))
	deadline := begin.Add(dur)

	type opSample struct {
		start         time.Time
		latMs         float64
		userMs, sysMs float64
		err           error
	}
	var ops []opSample
	gaps := []float64{ref.run()}
	gc0 := gcPause()
	for time.Now().Before(deadline) {
		user0, sys0 := cpuTime()
		start, end, err := runOp(inst, tr, 0)
		user1, sys1 := cpuTime()
		ops = append(ops, opSample{start, ms(end.Sub(start)), ms(user1 - user0), ms(sys1 - sys0), err})
		gaps = append(gaps, ref.run())
	}
	s := sliceStats{gcPauseMs: ms(gcPause() - gc0)}
	for i, o := range ops {
		if o.start.Before(measureFrom) {
			continue
		}
		s.attempted++
		s.seconds += o.latMs / 1000
		s.cpuMs += o.userMs
		s.sysMs += o.sysMs
		if o.err != nil {
			s.failed++
			if s.firstErr == nil {
				s.firstErr = o.err
			}
			continue
		}
		speed := speedAround(gaps, i)
		s.latMs = append(s.latMs, o.latMs)
		s.scaledMs = append(s.scaledMs, o.latMs*speed)
		s.scaledCPUMs = append(s.scaledCPUMs, o.userMs*speed)
		s.speed = append(s.speed, speed)
	}
	s.completed = len(s.latMs)
	if s.completed > 0 {
		s.cpuPerOpMs = s.cpuMs / float64(s.completed)
	}
	return s
}

// poissonSchedule draws arrival offsets in [0, dur) at the given rate from
// r: exponential gaps, so arrivals bunch and thin as independent users'
// do.
func poissonSchedule(r *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	for t := r.ExpFloat64() / rate; t < dur.Seconds(); t += r.ExpFloat64() / rate {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	return due
}

// openResult is one open-loop request's outcome; each request writes only
// its own slot.
type openResult struct {
	done   bool
	err    error
	latMs  float64 // completion − due time
	lateMs float64 // issue − due time
}

// runRung offers the schedule to inst: each request is issued at its due
// time (or as soon after as the generator manages) on its own goroutine,
// whatever the earlier ones are doing, and is timed from its due time, so a
// stall is charged to every request that was due during it.
func runRung(inst instance, rate float64, due []time.Duration, dur time.Duration, tr *tracer) (rungStats, int, error) {
	results := make([]openResult, len(due))
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	backlog := 0
	for i, offset := range due {
		at := begin.Add(offset)
		time.Sleep(time.Until(at))
		results[i].lateMs = ms(time.Since(at))
		if inFlight.Load() >= maxInFlight {
			continue // refused: stays !done
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, end, err := runOp(inst, tr, 0)
			inFlight.Add(-1)
			results[i].done, results[i].err, results[i].latMs = true, err, ms(end.Sub(at))
		}(i)
		backlog = int(inFlight.Load())
	}
	wg.Wait()

	rs := rungStats{rate: rate, backlog: backlog}
	warm := time.Duration(float64(dur) * warmShare)
	failed := 0
	var firstErr error
	for i, res := range results {
		if due[i] < warm {
			continue
		}
		rs.sent++
		rs.lateMs = append(rs.lateMs, res.lateMs)
		if res.done && res.err == nil {
			rs.latMs = append(rs.latMs, res.latMs)
		}
		switch {
		case !res.done || res.err != nil:
			failed++
			if res.err != nil && firstErr == nil {
				firstErr = res.err
			}
		case res.latMs <= ms(latencyLimit):
			rs.ok++
		}
	}
	sorted := sortedCopy(rs.latMs)
	rs.tailP, rs.tailMs = tailPercentile(sorted)
	return rs, failed, firstErr
}

// runOpen drives inst for dur with seeded Poisson arrivals, a third of the
// slice at each rung of burstRate.
func runOpen(inst instance, dur time.Duration, r *rand.Rand, tr *tracer) sliceStats {
	var s sliceStats
	rungDur := dur / time.Duration(len(burstRungs))
	user0, sys0 := cpuTime()
	gc0 := gcPause()
	for _, f := range burstRungs {
		rate := f * burstRate
		due := poissonSchedule(r, rate, rungDur)
		rungUser, _ := cpuTime()
		rs, failed, err := runRung(inst, rate, due, rungDur, tr)
		if issued := len(due) - failed; issued > 0 {
			user, _ := cpuTime()
			s.cpuPerOpMs = ms(user-rungUser) / float64(issued) // the last rung's stays
		}
		s.rungs = append(s.rungs, rs)
		s.attempted += rs.sent
		s.failed += failed
		s.missed += rs.sent - failed - rs.ok
		s.latMs = append(s.latMs, rs.latMs...)
		s.seconds += (rungDur - time.Duration(float64(rungDur)*warmShare)).Seconds()
		s.completed += len(rs.latMs)
		if s.firstErr == nil {
			s.firstErr = err
		}
	}
	user1, sys1 := cpuTime()
	s.cpuMs, s.sysMs, s.gcPauseMs = ms(user1-user0), ms(sys1-sys0), ms(gcPause()-gc0)
	return s
}

// maxOKRate is the highest rung of the slice that met the limit, in requests
// per second, and 0 if none did. A rung meets the limit when its tail
// latency is within latencyLimit, every request completed, and no backlog
// was left: by Little's law no more than rate × limit requests are in flight
// while every one is inside the limit, so a multiple of that at the end of
// the rung is a queue still growing.
func (s sliceStats) maxOKRate() float64 {
	best := 0.0
	for _, rg := range s.rungs {
		if len(rg.latMs) == rg.sent && rg.sent > 0 && rg.tailMs <= ms(latencyLimit) &&
			float64(rg.backlog) <= 2*rg.rate*latencyLimit.Seconds()+1 {
			best = max(best, rg.rate)
		}
	}
	return best
}
