package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanRec is one host wall-clock span recorded by the harness around a call
// into a layer. Spans are unrelated to the simulator's own virtual-time
// telemetry: they measure what the simulator costs to run, not what it
// simulates.
type spanRec struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Op     int32  `json:"op"`     // shared by every span of one build, fleet, cell or request batch
	Name   string `json:"name"`   // "<layer>.<call>"; the harness's own spans use the layer "bench"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Busy is the time spent inside the layer. It equals End-Start, except
	// for a span that sums many short calls interleaved with other work
	// (arrivals pulled by the event loop), where it is the summed call time.
	Busy int64 `json:"busy_ns"`
	N    int64 `json:"n"` // calls the span covers
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced passes run the same code with no timing calls.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
	ops   atomic.Int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op allocates an operation id.
func (t *tracer) op() int32 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Op: op, Name: name, Start: now, N: 1})
	t.mu.Unlock()
	return id
}

// end closes span id, which covered n calls.
func (t *tracer) end(id int32, n int64) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id]
	s.End, s.Busy, s.N = now, now-s.Start, n
	t.mu.Unlock()
}

// add records a finished span whose busy time was summed by the caller.
func (t *tracer) add(name string, op, parent int32, start, end time.Time, busy time.Duration, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{
		ID: int32(len(t.spans)), Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Busy: int64(busy), N: n,
	})
	t.mu.Unlock()
}

// mark returns the number of spans recorded so far, to delimit a pass.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// fold folds the spans in [from, to) into per-name self time (busy
// time minus the busy time of child spans) and call counts. Children
// always follow their parent in the slice, and a pass's spans never have a
// parent outside the pass.
func (t *tracer) fold(from, to int) (self map[string]time.Duration, calls map[string]int64, samples map[string][]time.Duration) {
	t.mu.Lock()
	spans := t.spans[from:to]
	t.mu.Unlock()
	childBusy := make([]int64, len(spans))
	for _, s := range spans {
		if p := int(s.Parent) - from; s.Parent >= 0 && p >= 0 {
			childBusy[p] += s.Busy
		}
	}
	self = map[string]time.Duration{}
	calls = map[string]int64{}
	samples = map[string][]time.Duration{}
	for i, s := range spans {
		if strings.HasPrefix(s.Name, "bench.") {
			continue
		}
		self[s.Name] += time.Duration(s.Busy - childBusy[i])
		calls[s.Name] += s.N
		if s.N == 1 {
			samples[s.Name] = append(samples[s.Name], time.Duration(s.Busy-childBusy[i]))
		}
	}
	return self, calls, samples
}

// write dumps every span as JSON lines after a header line.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
