package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a boundary the harness owns: a driver op, a
// Session.Run / TrainStep / HTTP round trip, or one wrapped Transport call.
// Times are offsets from the tracer's epoch.
type span struct {
	ID     int64
	Parent int64 // 0 for a root
	Op     int64 // driver op the span belongs to; spans of one op share it
	Name   string
	Lane   string // Chrome-trace row: a driver or a cluster task
	// Owner, for a span recorded with no parent (a Transport call the
	// runtime issued, with no context to carry an ID through), is the lane
	// whose span caused it; adopt resolves it to a Parent.
	Owner string
	Start time.Duration
	End   time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off state: every method is a no-op, so the untraced windows pay
// one nil check per boundary.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span ID before the span ends, so children can name their
// parent while it is still open.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span under a reserved ID.
func (t *tracer) add(id, parent, op int64, name, lane string, start, end time.Time) {
	if t == nil {
		return
	}
	t.put(span{ID: id, Parent: parent, Op: op, Name: name, Lane: lane,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// addOrphan records a finished span whose parent is only known as "the span
// of lane owner that was open when this one started".
func (t *tracer) addOrphan(name, lane, owner string, start, end time.Time) {
	if t == nil {
		return
	}
	t.put(span{ID: t.newID(), Name: name, Lane: lane, Owner: owner,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

func (t *tracer) put(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// adopt gives every orphan span the latest-started span of its owner lane
// that contains its start, as parent, and that span's op.
func adopt(spans []span) {
	byLane := map[string][]int{}
	for i, s := range spans {
		if s.Owner == "" {
			byLane[s.Lane] = append(byLane[s.Lane], i)
		}
	}
	for i := range spans {
		c := &spans[i]
		if c.Owner == "" || c.Parent != 0 {
			continue
		}
		best := -1
		for _, pi := range byLane[c.Owner] {
			p := spans[pi]
			if p.Start <= c.Start && c.Start < p.End && (best < 0 || p.Start >= spans[best].Start) {
				best = pi
			}
		}
		if best >= 0 {
			c.Parent, c.Op = spans[best].ID, spans[best].Op
		}
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover (children clipped to the parent,
// overlapping children counted once).
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - cover(children[s.ID], s.Start, s.End)
	}
	return out
}

// cover is the length of the union of the spans' intervals within [lo, hi].
func cover(spans []span, lo, hi time.Duration) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total time.Duration
	curLo, curHi := lo, lo
	for _, s := range iv {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + (curHi - curLo)
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as Chrome-trace JSON (chrome://tracing,
// Perfetto): one row per lane, each event carrying its span ID, parent, op
// and self time.
func writeChromeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	lanes := map[string]int{}
	var names []string
	for _, s := range spans {
		if _, ok := lanes[s.Lane]; !ok {
			lanes[s.Lane] = 0
			names = append(names, s.Lane)
		}
	}
	sort.Strings(names)
	events := make([]chromeEvent, 0, len(spans)+len(names))
	for i, n := range names {
		lanes[n] = i + 1
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1,
			Args: map[string]any{"name": n}})
	}
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: lanes[s.Lane],
			Ts:  usec(s.Start),
			Dur: usec(s.End - s.Start),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op,
				"self_us": usec(self[s.ID])},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
