package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"toss/internal/par"
)

// bench is one run's configuration plus its correctness ledger.
type bench struct {
	seed int64
	// scale is 1 at the stated input sizes; the self-test shrinks it.
	scale   float64
	workers int
	pool    *par.Pool
	// ref holds the reference tables (nil checks nothing).
	ref *reference
	// dir is a scratch directory inside the checkout.
	dir string

	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	problems  []string
}

// op counts one call into the program and records its error, if any.
func (b *bench) op(err error) error {
	b.attempted.Add(1)
	if err != nil {
		b.failed.Add(1)
		b.note("%v", err)
	}
	return err
}

// check counts a failed correctness check against the operation whose
// result it inspected.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.failed.Add(1)
		b.note(format, args...)
	}
}

func (b *bench) note(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// errorRate is failed operations over attempted ones.
func (b *bench) errorRate() float64 {
	a, f := b.attempted.Load(), b.failed.Load()
	if a == 0 {
		return 1
	}
	return math.Min(1, float64(f)/float64(a))
}

// runner is a prepared workload: each pass repeats the same simulated work
// and must produce the same outcome. pass does the timed work; the
// returned finish runs after the clock stops, checks the results and
// summarizes them.
type runner interface {
	pass(tr *tracer) (finish func() outcome, err error)
}

// outcome is what one pass simulated. Every field is a deterministic
// function of the seed and the program's model.
type outcome struct {
	simInv  int64
	digest  uint64
	p99Ms   float64
	memCost float64
	// counts are the simulated per-layer counters of the pass.
	counts map[string]float64
}

// workloadDef names a workload and how to prepare it.
type workloadDef struct {
	name  string
	setup func(b *bench, tr *tracer) (runner, error)
	// serial runs the workload on one worker instead of one per CPU.
	serial bool
}

// digest folds simulated values into a 64-bit hash a word at a time: each
// word is xored in and multiplied by the FNV-64 prime, and the product's
// high bits are folded back down. Checking a fleet's day hashes millions of
// words per pass, which a byte-wise hash behind an io.Writer spends most
// of a second on.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) u64(vs ...uint64) {
	for _, v := range vs {
		d.h = (d.h ^ v) * 1099511628211
		d.h ^= d.h >> 29
	}
}

func (d *digest) i64(vs ...int64) {
	for _, v := range vs {
		d.u64(uint64(v))
	}
}

func (d *digest) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

// str hashes s's length, then its bytes packed eight to a word.
func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * (i % 8))
		if i%8 == 7 {
			d.u64(w)
			w = 0
		}
	}
	if len(s)%8 != 0 {
		d.u64(w)
	}
}

func (d *digest) sum() uint64 { return d.h }

// passStats is the host cost of one pass.
type passStats struct {
	wall, cpu time.Duration
	allocB    uint64
	peakB     uint64
	gcCycles  uint64
	gcPause   time.Duration
	gcCPU     float64
	gcTotal   float64
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSampler tracks the peak of the memory the Go runtime holds from the
// OS (mapped and not released: the process's resident heap, stacks and
// runtime metadata) while a pass runs. The process's own peak RSS would
// mostly record the set-up and warm-up, and depend on where garbage
// collections happened to fall.
type memSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func startSampler() *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			s.peak = max(s.peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it, and returns the peak.
func (s *memSampler) finish() uint64 {
	close(s.stop)
	<-s.done
	return s.peak
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// measure runs one pass from a collected heap, with freed memory returned
// to the OS, and returns its outcome and host cost.
func measure(r runner, tr *tracer) (outcome, passStats, error) {
	debug.FreeOSMemory()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	metrics.Read(rtSamples)
	a0, g0 := rtSamples[0].Value.Uint64(), rtSamples[1].Value.Uint64()
	gc0, tot0 := rtSamples[2].Value.Float64(), rtSamples[3].Value.Float64()
	mem := startSampler()
	c0, t0 := cpuTime(), time.Now()
	finish, err := r.pass(tr)
	wall, cpu := time.Since(t0), cpuTime()-c0
	peak := mem.finish()
	metrics.Read(rtSamples)
	runtime.ReadMemStats(&ms1)
	st := passStats{
		wall:     wall,
		cpu:      cpu,
		allocB:   rtSamples[0].Value.Uint64() - a0,
		peakB:    peak,
		gcCycles: rtSamples[1].Value.Uint64() - g0,
		gcPause:  time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs),
		gcCPU:    rtSamples[2].Value.Float64() - gc0,
		gcTotal:  rtSamples[3].Value.Float64() - tot0,
	}
	if err != nil {
		return outcome{}, st, err
	}
	return finish(), st, nil
}

// median returns the median of xs (the mean of the middle pair for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest of the reported percentiles that
// leaves at least ten samples above it, or 0 when n < 20 (no tail can be
// told apart from the median).
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 0
}
