package distributed

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Redial backoff schedule: after a failed dial the resolver refuses to
// re-dial the task until the backoff elapses, returning the cached error
// immediately instead. The delay doubles per consecutive failure up to the
// cap, with ±25% jitter so a fleet of masters retrying the same dead task
// does not dial it in lockstep. A successful dial resets the schedule.
const (
	dialBackoffBase = 10 * time.Millisecond
	dialBackoffMax  = 2 * time.Second
)

// dialFunc dials one task address; tests substitute it to count attempts.
type dialFunc func(addr string) (Transport, error)

// taskConn is the cached dial state for one task.
type taskConn struct {
	client Transport
	addr   string // address the client was dialed at
	fails  int    // consecutive dial failures
	next   time.Time
	desc   string // last dial error, reported while backing off
}

// clientCache caches one live transport per task and owns the redial
// backoff; TCPResolver sits on it.
type clientCache struct {
	mu    sync.Mutex
	dial  dialFunc
	rng   *rand.Rand
	tasks map[string]*taskConn
}

func newClientCache(dial dialFunc) *clientCache {
	if dial == nil {
		dial = func(addr string) (Transport, error) { return Dial(addr) }
	}
	return &clientCache{
		dial:  dial,
		rng:   rand.New(rand.NewSource(time.Now().UnixNano())),
		tasks: map[string]*taskConn{},
	}
}

// get returns a live cached transport for the task, dialing addr if needed.
// A cached client is dropped when its connection has died or the task's
// address changed: TCPResolver reads the spec on every call, and a caller
// may point a task at a new address after start-up.
func (cc *clientCache) get(task, addr string) (Transport, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	tc := cc.tasks[task]
	if tc == nil {
		tc = &taskConn{}
		cc.tasks[task] = tc
	}
	if tc.client != nil {
		live := tc.addr == addr
		if live {
			if c, ok := tc.client.(*Client); ok && c.Err() != nil {
				live = false
			}
		}
		if live {
			return tc.client, nil
		}
		tc.client.Close()
		tc.client = nil
	}
	if now := time.Now(); now.Before(tc.next) {
		return nil, fmt.Errorf("distributed: %w: backing off %s until %s after: %s",
			ErrUnavailable, task, tc.next.Format("15:04:05.000"), tc.desc)
	}
	client, err := cc.dial(addr)
	if err != nil {
		backoff := dialBackoffBase << tc.fails
		if backoff > dialBackoffMax || backoff <= 0 {
			backoff = dialBackoffMax
		}
		// Jitter in [0.75, 1.25) of the nominal delay.
		backoff = time.Duration(float64(backoff) * (0.75 + 0.5*cc.rng.Float64()))
		tc.fails++
		tc.next = time.Now().Add(backoff)
		tc.desc = err.Error()
		if !errors.Is(err, ErrUnavailable) {
			// A failed dial is by definition an unavailable task; callers
			// key retry decisions on ErrUnavailable.
			err = fmt.Errorf("distributed: %w: dialing %s: %s", ErrUnavailable, task, err)
		}
		return nil, err
	}
	tc.client = client
	tc.addr = addr
	tc.fails = 0
	tc.next = time.Time{}
	return client, nil
}
