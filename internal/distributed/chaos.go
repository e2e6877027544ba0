package distributed

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// This file is the adversarial half of the fault-tolerance story: a
// transport wrapper that injects faults per RPC under a seeded RNG, so the
// kill-and-recover, partition and duplicate-delivery tests can exercise
// deterministic failure schedules instead of relying on hand-placed process
// kills. The faults model the classic network failure modes — a request lost
// before delivery (drop), a slow link (delay), a retransmitted duplicate
// (dup), a response lost after the server executed (err), and a one-way
// partition.

// FaultKind names one chaos decision.
type FaultKind string

const (
	FaultNone      FaultKind = "none"
	FaultDrop      FaultKind = "drop"      // request lost: not delivered, ErrUnavailable
	FaultDelay     FaultKind = "delay"     // delivered after a random delay
	FaultDup       FaultKind = "dup"       // delivered twice back-to-back; second response discarded
	FaultErr       FaultKind = "err"       // delivered and executed, but the response is lost
	FaultPartition FaultKind = "partition" // one-way partition: every RPC to the task is dropped
)

// FaultRecord is one entry of the chaos log.
type FaultRecord struct {
	Seq    int
	Method string
	Task   string
	Kind   FaultKind
	Delay  time.Duration
}

// ChaosConfig sets the per-RPC fault probabilities. Probabilities are
// cumulative-checked in the order drop, delay, dup, err; their sum must be
// ≤ 1, the remainder is fault-free delivery.
type ChaosConfig struct {
	Seed  int64
	Drop  float64
	Delay float64
	Dup   float64
	Err   float64
	// MaxDelay bounds the injected delay (default 2ms).
	MaxDelay time.Duration
}

// ChaosPlan is a seeded fault schedule shared by every transport it wraps.
// One locked RNG drives all decisions, so for a fixed seed the i-th
// decision is always the same: a serial RPC sequence reproduces its fault
// schedule exactly, and a concurrent one draws from the same deterministic
// decision stream. Partitions are checked before the RNG is consulted and
// consume no randomness, so imposing or healing one does not shift the
// rest of the schedule.
type ChaosPlan struct {
	cfg ChaosConfig

	mu      sync.Mutex
	rng     *rand.Rand
	seq     int
	log     []FaultRecord
	blocked map[string]bool
}

// NewChaosPlan creates a plan from the config.
func NewChaosPlan(cfg ChaosConfig) (*ChaosPlan, error) {
	if cfg.Drop < 0 || cfg.Delay < 0 || cfg.Dup < 0 || cfg.Err < 0 ||
		cfg.Drop+cfg.Delay+cfg.Dup+cfg.Err > 1 {
		return nil, fmt.Errorf("distributed: chaos probabilities must be non-negative and sum to at most 1")
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	return &ChaosPlan{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		blocked: map[string]bool{},
	}, nil
}

// PartitionTo imposes a one-way partition: every RPC through this plan to
// the task is dropped until Heal. Traffic from the task (its own outbound
// RPCs through other resolvers) is unaffected — that is the "one-way".
func (p *ChaosPlan) PartitionTo(task string) {
	p.mu.Lock()
	p.blocked[task] = true
	p.mu.Unlock()
}

// Heal lifts a one-way partition.
func (p *ChaosPlan) Heal(task string) {
	p.mu.Lock()
	delete(p.blocked, task)
	p.mu.Unlock()
}

// Log returns a copy of the fault log (every decision, including
// FaultNone, in decision order).
func (p *ChaosPlan) Log() []FaultRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]FaultRecord, len(p.log))
	copy(out, p.log)
	return out
}

// Faults counts the injected (non-none) faults so far.
func (p *ChaosPlan) Faults() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, r := range p.log {
		if r.Kind != FaultNone {
			n++
		}
	}
	return n
}

// decide draws the fault for one RPC.
func (p *ChaosPlan) decide(method, task string) FaultRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec := FaultRecord{Seq: p.seq, Method: method, Task: task, Kind: FaultNone}
	p.seq++
	if p.blocked[task] {
		rec.Kind = FaultPartition
	} else {
		x := p.rng.Float64()
		switch {
		case x < p.cfg.Drop:
			rec.Kind = FaultDrop
		case x < p.cfg.Drop+p.cfg.Delay:
			rec.Kind = FaultDelay
			rec.Delay = time.Duration(p.rng.Int63n(int64(p.cfg.MaxDelay))) + 1
		case x < p.cfg.Drop+p.cfg.Delay+p.cfg.Dup:
			rec.Kind = FaultDup
		case x < p.cfg.Drop+p.cfg.Delay+p.cfg.Dup+p.cfg.Err:
			rec.Kind = FaultErr
		}
	}
	p.log = append(p.log, rec)
	return rec
}

// WrapResolver wraps every transport the inner resolver hands out with the
// plan's fault injection. Wrapping sits outside the resolver's client
// cache, so faults are injected per call without disturbing caching,
// backoff or redial behavior.
func (p *ChaosPlan) WrapResolver(inner Resolver) Resolver {
	return func(task string) (Transport, error) {
		tr, err := inner(task)
		if err != nil {
			return nil, err
		}
		return NewTransport(chaosCaller{task, tr, p}), nil
	}
}

// chaosCaller injects the plan's faults in front of one task's transport.
type chaosCaller struct {
	task  string
	inner Transport
	plan  *ChaosPlan
}

// Call routes one RPC through the fault decision.
func (t chaosCaller) Call(m Method, req Message, abort <-chan struct{}) (Message, error) {
	rec := t.plan.decide(m.String(), t.task)
	switch rec.Kind {
	case FaultDrop, FaultPartition:
		return nil, fmt.Errorf("distributed: %w: chaos %s of %s to %s", ErrUnavailable, rec.Kind, m, t.task)
	case FaultDelay:
		time.Sleep(rec.Delay)
	case FaultDup:
		// A retransmitted request: the server sees it twice back-to-back;
		// the caller gets the first response, the duplicate's is discarded
		// (the worker's step-ID dedup is what keeps this harmless).
		// RecvTensor is exempt — a rendezvous receive consumes its value,
		// so the duplicate would block forever on an empty key. A duplicated
		// PushGradients is safe: the first call blocks until the round
		// applies, the retransmit then gets an immediate already-applied ack
		// (the round-tag idempotence the aggregator provides).
		first, err := Invoke(t.inner, m, req, abort)
		if m != mRecvTensor {
			_, _ = Invoke(t.inner, m, req, abort)
		}
		return first, err
	case FaultErr:
		// The request was delivered and executed; only the response is
		// lost. The caller cannot tell this from a drop — which is exactly
		// the ambiguity that makes lost responses the hard failure mode.
		if _, err := Invoke(t.inner, m, req, abort); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("distributed: %w: chaos lost the %s response from %s", ErrUnavailable, m, t.task)
	}
	return Invoke(t.inner, m, req, abort)
}

// Close implements Caller; closing is never faulted.
func (t chaosCaller) Close() error { return t.inner.Close() }
