package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"toss/internal/core"
	"toss/internal/fault"
	"toss/internal/mem"
	"toss/internal/obs"
	"toss/internal/platform"
	"toss/internal/simtime"
	"toss/internal/stats"
	"toss/internal/telemetry"
	"toss/internal/workload"
	"toss/internal/xray"
)

// observed_replay: the faasim single-host platform replaying a seeded
// request mix in toss, reap and dram modes with every observer attached, as
// `faasim -trace -explain -fault-rate` runs it: a telemetry tracer, an xray
// collector, a flight recorder, and a low-rate uniform fault plan. The
// observers force one worker.

const (
	replayRequests = 900
	// replayWarmBlocks is how many leading blocks of the mix come from the
	// canonical seed (see setupReplay).
	replayWarmBlocks = 30
	replayFaultRate  = 0.02
	replayWindow     = 12
	replayInterval   = 100 * simtime.Millisecond
	// replayFaultSeed is faasim's default -fault-seed. The restore-path
	// sites fire by per-function sequence number, so a fixed plan seed
	// puts the recovery-heavy firings (stale profile, corruption) at the
	// same request counts for every workload seed.
	replayFaultSeed = 1
)

var (
	replayFuncs = []string{"pyaes", "json_load_dump", "compress"}
	replayModes = []platform.Mode{platform.ModeTOSS, platform.ModeREAP, platform.ModeDRAM}
)

// replayRecord is the observer-independent part of a platform record.
type replayRecord struct {
	Function  string
	Level     workload.Level
	Mode      platform.Mode
	Phase     core.Phase
	Setup     simtime.Duration
	Exec      simtime.Duration
	Faults    int64
	Meter     mem.Meter
	Retries   int
	Degraded  string
	FaultSite string
	Err       string
}

func project(r platform.Record) replayRecord {
	p := replayRecord{r.Function, r.Level, r.Mode, r.Phase, r.Setup, r.Exec, r.Faults, r.Meter, r.Retries, r.Degraded, r.FaultSite, ""}
	if r.Err != nil {
		p.Err = r.Err.Error()
	}
	return p
}

type replayRunner struct {
	b    *bench
	reqs []platform.Request
	// want is the observer-free replay of reqs per mode, the reference the
	// observed replay must reproduce record for record.
	want [][]replayRecord
	// warm is how many leading requests come from the canonical seed.
	warm int
}

// setupReplay draws the request mix and replays it without observers. The
// mix is balanced: every block of requests holds each (function, input)
// pair once, with trace seeds drawn from the canonical seed, in an order
// the workload seed draws. The first replayWarmBlocks blocks are wholly
// canonical, so TOSS profiles every function on the same inputs whatever
// the workload seed: how many profiling invocations convergence takes
// varies by tens of percent from seed to seed, and profiling is most of the
// platform's host time. The canonical trace seeds give every seed's mix the
// same requests (seeded trace seeds moved the host time of a pass by about
// 6%); the seed orders them, which moves what the platform keeps warm,
// reprofiles and injects faults into.
func setupReplay(b *bench, tr *tracer) (runner, error) {
	n := max(10, int(replayRequests*b.scale))
	r := &replayRunner{b: b}
	var block []platform.Request
	for _, fn := range replayFuncs {
		for _, lv := range workload.Levels {
			block = append(block, platform.Request{Function: fn, Level: lv})
		}
	}
	rng := rand.New(rand.NewSource(canonicalSeed))
	order := rng
	for blocks := 0; len(r.reqs) < n; blocks++ {
		if blocks == replayWarmBlocks {
			order = rand.New(rand.NewSource(b.seed))
			r.warm = len(r.reqs)
		}
		reqs := append([]platform.Request(nil), block...)
		for i := range reqs {
			reqs[i].Seed = rng.Int63n(1 << 40)
		}
		for _, i := range order.Perm(len(reqs)) {
			r.reqs = append(r.reqs, reqs[i])
		}
	}
	r.reqs = r.reqs[:n]
	op := tr.op()
	for _, mode := range replayModes {
		p, _, err := r.platform(mode, false)
		if b.op(err) != nil {
			return nil, err
		}
		id := tr.begin("platform.Replay", op, -1)
		recs := p.Replay(r.reqs, 1)
		tr.end(id, int64(len(r.reqs)))
		want := make([]replayRecord, len(recs))
		for i, rec := range recs {
			want[i] = project(rec)
		}
		r.want = append(r.want, want)
	}
	return r, nil
}

// platform builds a fresh platform for one mode with the fault plan, and
// with every observer attached when observed is set.
func (r *replayRunner) platform(mode platform.Mode, observed bool) (*platform.Platform, *observers, error) {
	cfg := core.DefaultConfig()
	cfg.ConvergenceWindow = replayWindow
	plan := fault.UniformPlan(replayFaultRate, replayFaultSeed)
	inj, err := fault.New(plan)
	if err != nil {
		return nil, nil, err
	}
	cfg.VM.Faults = inj
	o := &observers{inj: inj}
	if observed {
		cfg.VM.Metrics = telemetry.NewMetrics()
		o.xray = xray.NewCollector()
		cfg.VM.XRay = o.xray
	}
	p, err := platform.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if observed {
		o.tracer = telemetry.NewTracer()
		p.SetTracer(o.tracer)
		o.rec = obs.New(obs.Config{Interval: replayInterval, Metrics: cfg.VM.Metrics})
		o.rec.SetXRay(o.xray)
		p.SetRecorder(o.rec) // before Register: TOSS hooks wire at registration
	}
	for _, fn := range replayFuncs {
		if err := p.Register(workload.ByNameMust(fn), mode); err != nil {
			return nil, nil, err
		}
	}
	return p, o, nil
}

type observers struct {
	inj    *fault.Injector
	tracer *telemetry.Tracer
	xray   *xray.Collector
	rec    *obs.Recorder
}

type modeResult struct {
	recs     []platform.Record
	costs    []float64
	injected int64
	spans    int
	budgets  int
	samples  int
}

func (r *replayRunner) pass(tr *tracer) (func() outcome, error) {
	res := make([]modeResult, len(replayModes))
	for mi, mode := range replayModes {
		if err := r.mode(tr, mode, &res[mi]); err != nil {
			return nil, err
		}
	}
	return func() outcome { return r.summarize(res) }, nil
}

// mode replays the request mix in one mode, one request per Replay call so
// each request is timed, then renders every observer's export as faasim
// does.
func (r *replayRunner) mode(tr *tracer, mode platform.Mode, mr *modeResult) error {
	b := r.b
	op := tr.op()
	root := tr.begin("bench.mode", op, -1)
	defer tr.end(root, 1)
	id := tr.begin("platform.New", op, root)
	p, o, err := r.platform(mode, true)
	tr.end(id, 1)
	if b.op(err) != nil {
		return err
	}
	mr.recs = make([]platform.Record, 0, len(r.reqs))
	for _, req := range r.reqs {
		id = tr.begin("platform.Replay", op, root)
		recs := p.Replay([]platform.Request{req}, 1)
		tr.end(id, 1)
		mr.recs = append(mr.recs, recs...)
		b.op(recs[0].Err)
	}
	for _, fn := range replayFuncs {
		st, err := p.Stats(fn)
		if b.op(err) != nil {
			return err
		}
		mr.costs = append(mr.costs, st.NormCost)
	}
	mr.injected = o.inj.Total()

	var buf bytes.Buffer
	id = tr.begin("telemetry.WriteChromeTrace", op, root)
	spans := o.tracer.Spans()
	err = telemetry.WriteChromeTrace(&buf, spans)
	tr.end(id, 1)
	if b.op(err) != nil {
		return err
	}
	mr.spans = len(spans)

	id = tr.begin("xray.Report", op, root)
	budgets := make([]*xray.Budget, 0, len(mr.recs))
	for _, rec := range mr.recs {
		if rec.XRay != nil {
			budgets = append(budgets, rec.XRay)
		}
	}
	rep := xray.Aggregate("replay", budgets)
	for i := range rep.Functions {
		buf.WriteString(xray.ReportWaterfall(&rep.Functions[i], 32))
	}
	tr.end(id, 1)
	mr.budgets = len(budgets)

	id = tr.begin("obs.Export", op, root)
	err = obs.WritePrometheus(&buf, o.rec.Metrics())
	snap := o.rec.Snapshot()
	if err == nil {
		err = obs.WriteCSV(&buf, snap)
	}
	tr.end(id, 1)
	if b.op(err) != nil {
		return err
	}
	for _, s := range snap.Series {
		mr.samples += len(s.Points)
	}
	return nil
}

func (r *replayRunner) summarize(res []modeResult) outcome {
	b := r.b
	d := newDigest()
	out := outcome{counts: map[string]float64{}}
	for mi, mr := range res {
		var totals []simtime.Duration
		for i, rec := range mr.recs {
			got := project(rec)
			b.check(got == r.want[mi][i], "observed_replay %s request %d: observed record %+v differs from the observer-free %+v",
				replayModes[mi], i, got, r.want[mi][i])
			d.str(fmt.Sprintf("%+v", got))
			if rec.Err == nil && i >= r.warm {
				totals = append(totals, rec.Total())
			}
			out.counts["platform.retries"] += float64(rec.Retries)
			if rec.Degraded != "" {
				out.counts["platform.degraded"]++
			}
		}
		d.f64(mr.costs...)
		d.i64(mr.injected, int64(mr.spans), int64(mr.budgets), int64(mr.samples))
		if replayModes[mi] == platform.ModeTOSS {
			// The p99 of the seeded traffic after the canonical warm-up.
			out.p99Ms = float64(stats.NearestRankInPlace(totals, 99)) / float64(simtime.Millisecond)
			out.memCost = stats.Mean(mr.costs)
		}
		out.simInv += int64(len(mr.recs))
		out.counts["platform.requests"] += float64(len(mr.recs))
		out.counts["fault.injected"] += float64(mr.injected)
		out.counts["telemetry.spans"] += float64(mr.spans)
		out.counts["xray.budgets"] += float64(mr.budgets)
		out.counts["obs.samples"] += float64(mr.samples)
	}
	out.digest = d.sum()
	return out
}
