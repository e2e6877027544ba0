package distributed

import (
	"sync"
	"time"
)

// FailureDetectorOptions tunes the heartbeat failure detector.
type FailureDetectorOptions struct {
	// Interval is the probe period per task (default 50ms).
	Interval time.Duration
	// Timeout is how long a task may go without a successful heartbeat
	// before it is declared failed and removed from membership (default
	// 8×Interval). Timeouts trade detection latency against tolerance of
	// transient stalls — the paper's stragglers are alive but slow, and
	// must not be evicted for it. A probe runs every Interval, failing or
	// not, so the verdict lands within one Interval of the Timeout; how
	// often a dead address is dialed is the resolver's dial backoff.
	Timeout time.Duration
}

func (o *FailureDetectorOptions) withDefaults() {
	if o.Interval <= 0 {
		o.Interval = 50 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 8 * o.Interval
	}
}

// FailureDetector probes every live task of a DynamicCluster with
// Heartbeat RPCs and vacates the slot of any task that stays silent past
// the timeout (§4.4: at scale, task failure is the steady state — someone
// has to notice). Detection feeds the membership table; reaction — graph
// re-registration, shard migration, barrier recomputation — belongs to the
// layers watching it.
type FailureDetector struct {
	cluster *DynamicCluster
	opts    FailureDetectorOptions

	mu      sync.Mutex
	probers map[string]bool // task → prober goroutine running
	closed  bool
	quit    chan struct{}
	wg      sync.WaitGroup
}

// NewFailureDetector starts a detector over the cluster. Close stops it.
func NewFailureDetector(cluster *DynamicCluster, opts FailureDetectorOptions) *FailureDetector {
	opts.withDefaults()
	d := &FailureDetector{
		cluster: cluster,
		opts:    opts,
		probers: map[string]bool{},
		quit:    make(chan struct{}),
	}
	d.wg.Add(1)
	go d.reconcile()
	return d
}

// reconcile keeps one prober goroutine per live task, picking up joins as
// membership changes.
func (d *FailureDetector) reconcile() {
	defer d.wg.Done()
	watch, cancel := d.cluster.Watch()
	defer cancel()
	for {
		for _, task := range d.cluster.Tasks() {
			d.mu.Lock()
			if !d.closed && !d.probers[task] {
				d.probers[task] = true
				d.wg.Add(1)
				go d.probe(task)
			}
			d.mu.Unlock()
		}
		select {
		case <-watch:
		case <-time.After(d.opts.Interval):
		case <-d.quit:
			return
		}
	}
}

// probe is the per-task heartbeat loop. It exits when the task leaves the
// cluster (its own verdict or anyone else's); a task re-joining the slot
// gets a fresh prober from reconcile.
func (d *FailureDetector) probe(task string) {
	defer func() {
		d.mu.Lock()
		delete(d.probers, task)
		d.mu.Unlock()
		d.wg.Done()
	}()
	resolver := d.cluster.Resolver()
	lastOK := time.Now()
	for {
		select {
		case <-time.After(d.opts.Interval):
		case <-d.quit:
			return
		}
		job, idx, err := ParseTask(task)
		if err != nil {
			return
		}
		if _, aerr := d.cluster.Address(task); aerr != nil {
			return // left (or never existed): stop probing
		}
		ok := false
		if tr, rerr := resolver(task); rerr == nil {
			if resp, herr := tr.Heartbeat(&HeartbeatReq{}); herr == nil && resp != nil {
				// An answer from a different task name means the address
				// table is stale or crossed; that is not health.
				ok = resp.Task == task
			}
		}
		if ok {
			lastOK = time.Now()
		} else if time.Since(lastOK) > d.opts.Timeout {
			_ = d.cluster.Leave(job, idx)
			return
		}
	}
}

// Close stops every prober and waits for them.
func (d *FailureDetector) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.mu.Unlock()
	close(d.quit)
	d.wg.Wait()
}
