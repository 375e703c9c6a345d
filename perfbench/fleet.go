package main

import (
	"fmt"
	"time"

	"toss/internal/cluster"
	"toss/internal/experiments"
	"toss/internal/fleet"
	"toss/internal/guest"
	"toss/internal/insight"
	"toss/internal/par"
	"toss/internal/sched"
	"toss/internal/simtime"
	"toss/internal/stats"
	"toss/internal/workload"
)

// fleet_day: the ext10 day, streamed diurnal+flash arrivals through a
// 4-node affinity-routed fleet, once for the tiered (TOSS) fleet and once
// for the equal-memory-cost DRAM-only fleet, with each fleet's completions
// replayed through the two ext10 SLO burn rules.

const (
	fleetHorizon = 86400 * simtime.Second
	fleetIAT     = 120 * simtime.Millisecond
	fleetNodes   = 4
	fleetCores   = 16
	// fleetArrivals is how many arrivals every seed's day holds: the count
	// of the canonical seed's day, the ext10 row's invocations. How many
	// arrivals a day draws varies by about 7% from seed to seed (the flash
	// episodes are seeded), and the fleets' host time with it; a fixed count
	// keeps the host-time metrics a measure of the program, not of the
	// seed.
	fleetArrivals = 1321239
	// SLO rule parameters of the ext10 insight feed.
	fleetInflObjective = 10 * simtime.Millisecond
	fleetFastBurn      = 0.10
	fleetSlowBurn      = 0.05
)

// fleetFuncs is the ext9/ext10 cluster function set.
var fleetFuncs = []string{"json_load_dump", "pyaes", "compress"}

type fleetRunner struct {
	b        *bench
	horizon  simtime.Duration
	profiles [2]map[string]cluster.FnProfile // toss, dram
	hosts    [2]fleet.HostSpec
	disk     int64
	memCost  float64
	// arrivals is how many arrivals a fleet's day holds.
	arrivals int64
	// arrivalDigest is the last pass's digest of the tiered fleet's
	// arrivals (the self-test compares it across seeds).
	arrivalDigest uint64
}

var fleetMechs = []string{"toss", "dram"}

func setupFleet(b *bench, tr *tracer) (runner, error) {
	core := experiments.NewSuite().Core
	r := &fleetRunner{
		b:        b,
		horizon:  simtime.Duration(float64(fleetHorizon) * b.scale),
		arrivals: int64(float64(fleetArrivals)*b.scale + 0.5),
	}
	op := tr.op()
	for i, mech := range []sched.Mechanism{sched.MechTOSS, sched.MechDRAM} {
		scfg := sched.DefaultConfig()
		scfg.Core = core
		scfg.Mechanism = mech
		id := tr.begin("cluster.Profile", op, -1)
		p, err := cluster.Profile(scfg, fleetFuncs)
		tr.end(id, int64(len(fleetFuncs)))
		if b.op(err) != nil {
			return nil, err
		}
		r.profiles[i] = p
	}
	// Host sizing as ext9/ext10 do it: each node holds about three quarters
	// of the function set warm; the DRAM host buys the tiered host's slow
	// budget as DRAM at the model's price ratio.
	slowPerFast := core.Cost.CostSlow / core.Cost.CostFast
	var fastSum, slowSum, fastMax, slowMax, dramMax, snapSum, snapMax int64
	for _, fn := range fleetFuncs {
		p := r.profiles[0][fn]
		f, s := p.FastPages*guest.PageSize, p.SlowPages*guest.PageSize
		fastSum, slowSum = fastSum+f, slowSum+s
		fastMax, slowMax = max(fastMax, f), max(slowMax, s)
		dramMax = max(dramMax, r.profiles[1][fn].FastPages*guest.PageSize)
		snapSum += p.SnapshotBytes
		snapMax = max(snapMax, p.SnapshotBytes)
	}
	r.hosts[0] = fleet.HostSpec{FastBytes: max(fastSum*3/4, fastMax), SlowBytes: max(slowSum*3/4, slowMax)}
	r.hosts[1] = fleet.HostSpec{FastBytes: max(r.hosts[0].FastBytes+int64(slowPerFast*float64(r.hosts[0].SlowBytes)), dramMax)}
	r.disk = max(snapSum*7/10, snapMax)
	// The tiered host's memory bill relative to buying the same capacity
	// as DRAM.
	h := r.hosts[0]
	r.memCost = (float64(h.FastBytes)*core.Cost.CostFast + float64(h.SlowBytes)*core.Cost.CostSlow) /
		(float64(h.FastBytes+h.SlowBytes) * core.Cost.CostFast)
	return r, nil
}

// dayStream draws exactly n arrivals: the seeded day, cut off at n
// arrivals, or continued into the next day (drawn with the next seed and
// shifted by the horizon) when it ends short. At the canonical seed the
// day holds exactly n and is replayed whole.
type dayStream struct {
	cfg  workload.ArrivalsConfig
	day  int64
	cur  workload.Source
	left int64
	err  error
}

func newDayStream(cfg workload.ArrivalsConfig, n int64) (*dayStream, error) {
	s, err := workload.NewStream(cfg)
	if err != nil {
		return nil, err
	}
	return &dayStream{cfg: cfg, cur: s, left: n}, nil
}

func (d *dayStream) Next() (workload.ArrivalSpec, bool) {
	for d.left > 0 {
		if a, ok := d.cur.Next(); ok {
			d.left--
			a.At += simtime.Duration(d.day) * d.cfg.Horizon
			return a, true
		}
		d.day++
		cfg := d.cfg
		cfg.Seed += d.day
		s, err := workload.NewStream(cfg)
		if err != nil {
			d.err = err
			break
		}
		d.cur = s
	}
	return workload.ArrivalSpec{}, false
}

// countingSource counts (and, when traced, times) the arrivals the event
// loop pulls.
type countingSource struct {
	src   workload.Source
	n     int64
	timed bool
	busy  time.Duration
}

func (c *countingSource) Next() (workload.ArrivalSpec, bool) {
	var t0 time.Time
	if c.timed {
		t0 = time.Now()
	}
	a, ok := c.src.Next()
	if c.timed {
		c.busy += time.Since(t0)
	}
	if ok {
		c.n++
	}
	return a, ok
}

type fleetResult struct {
	rep     *cluster.Report
	drawn   int64
	p99Ms   float64
	coldPct float64
	evals   int64
	fires   int
}

func (r *fleetRunner) pass(tr *tracer) (func() outcome, error) {
	res, err := par.Map(r.b.pool, fleetMechs, func(i int, mech string) (fleetResult, error) {
		return r.fleet(tr, i, mech)
	})
	if err != nil {
		return nil, err
	}
	return func() outcome { return r.summarize(res) }, nil
}

func (r *fleetRunner) fleet(tr *tracer, i int, mech string) (fleetResult, error) {
	b := r.b
	op := tr.op()
	root := tr.begin("bench.fleet", op, -1)
	defer tr.end(root, 1)
	var fr fleetResult
	profiles := r.profiles[i]
	cfg := cluster.Config{
		Hosts:           r.hosts[i].Hosts(fleetNodes),
		Cores:           fleetCores,
		DiskBytes:       r.disk,
		PullBytesPerSec: 2 << 30,
		ResumeCost:      500 * simtime.Microsecond,
		Router:          cluster.RouteAffinity,
		Cost:            experiments.NewSuite().Core.Cost,
	}
	id := tr.begin("workload.NewStream", op, root)
	stream, err := newDayStream(workload.ArrivalsConfig{
		Process:     workload.ProcDiurnalFlash,
		Horizon:     r.horizon,
		MeanIAT:     fleetIAT,
		Functions:   fleetFuncs,
		Seed:        b.seed*1000 + 10,
		FlashFactor: 4,
	}, r.arrivals)
	tr.end(id, 1)
	if b.op(err) != nil {
		return fr, err
	}
	id = tr.begin("cluster.New", op, root)
	cl, err := cluster.New(cfg, profiles)
	tr.end(id, 1)
	if b.op(err) != nil {
		return fr, err
	}
	src := &countingSource{src: stream, timed: tr != nil}
	start := time.Now()
	id = tr.begin("cluster.RunStream", op, root)
	rep, err := cl.RunStream(src)
	tr.end(id, 1)
	tr.add("workload.Stream.Next", op, id, start, time.Now(), src.busy, src.n)
	if err == nil {
		err = stream.err
	}
	if b.op(err) != nil {
		return fr, err
	}
	fr.rep, fr.drawn = rep, src.n

	// The table's steady-state p99 of latency over a same-level warm hit.
	warmup := r.horizon / 24
	recs := &rep.Records
	infl := make([]simtime.Duration, 0, recs.Len())
	for k := 0; k < recs.Len(); k++ {
		if recs.Arrival(k) >= warmup {
			infl = append(infl, recs.Latency(k)-profiles[recs.Function(k)].WarmExec[recs.Level(k)])
		}
	}
	fr.p99Ms = float64(stats.NearestRankInPlace(infl, 99)) / float64(simtime.Millisecond)
	fr.coldPct = rep.ColdFraction() * 100

	// Alerting replays the completions after the run, as ext10 does.
	id = tr.begin("cluster.Records.Completions", op, root)
	comps := rep.Records.Completions()
	tr.end(id, 1)
	fast, slow := r.horizon/288, r.horizon/24
	id = tr.begin("insight.Engine.Observe", op, root)
	eng := insight.NewEngine(
		insight.NewStore(insight.Config{Resolution: r.horizon / insight.DefaultMaxBuckets}),
		insight.BurnRule("warm-hit-inflation-slo", "inflation", fleetInflObjective, fast, slow, fleetFastBurn, fleetSlowBurn),
		insight.BurnRule("cold-start-rate", "cold", 0, fast, slow, fleetFastBurn, fleetSlowBurn),
	)
	var observed int64
	for _, c := range comps {
		if c.At < warmup {
			continue
		}
		eng.ObserveLatency("inflation", c.At, c.Latency-profiles[c.Function].WarmExec[c.Level])
		var coldLat simtime.Duration
		if c.Cold {
			coldLat = simtime.Millisecond
		}
		eng.ObserveLatency("cold", c.At, coldLat)
		observed += 2
	}
	eng.Observe("inflation_p99_ms", r.horizon, fr.p99Ms)
	eng.Observe("cold_pct", r.horizon, fr.coldPct)
	res := eng.Result("fleet_day/" + mech)
	tr.end(id, observed+2)
	b.op(nil)
	fr.evals, fr.fires = res.Evals, res.Fires()
	return fr, nil
}

func (r *fleetRunner) summarize(res []fleetResult) outcome {
	b := r.b
	d, arr := newDigest(), newDigest()
	out := outcome{counts: map[string]float64{}, memCost: r.memCost}
	for i, fr := range res {
		rep, recs := fr.rep, &fr.rep.Records
		b.check(recs.Len() == int(fr.drawn), "fleet_day %s: %d records for %d arrivals drawn", fleetMechs[i], recs.Len(), fr.drawn)
		b.check(fr.drawn == r.arrivals, "fleet_day %s: %d arrivals drawn, want %d", fleetMechs[i], fr.drawn, r.arrivals)
		b.compare("ext10", fleetMechs[i],
			fmt.Sprintf("%d", recs.Len()),
			fmt.Sprintf("%.1f", rep.Throughput()),
			fmt.Sprintf("%.1f", fr.p99Ms),
			fmt.Sprintf("%.2f%%", fr.coldPct),
			fmt.Sprintf("%d", rep.Pulls),
			fmt.Sprintf("%.2f", float64(rep.PullTime)/float64(simtime.Second)))
		var cold int64
		var coldInfl []simtime.Duration
		for k := 0; k < recs.Len(); k++ {
			at, lv, lat := recs.Arrival(k), recs.Level(k), recs.Latency(k)
			d.i64(int64(at), int64(lv), int64(lat))
			d.str(recs.Function(k))
			d.str(recs.Node(k))
			if i == 0 {
				arr.i64(int64(at), int64(lv))
				arr.str(recs.Function(k))
			}
			if recs.Cold(k) {
				cold++
				coldInfl = append(coldInfl, lat-r.profiles[i][recs.Function(k)].WarmExec[lv])
			}
		}
		// Over 99% of the tiered fleet's invocations are warm hits that
		// inflate by exactly the resume cost, so ext10's p99 is that
		// constant at every seed; the cold starts' p99 is where the
		// tiered restore shows.
		if i == 0 {
			out.p99Ms = float64(stats.NearestRankInPlace(coldInfl, 99)) / float64(simtime.Millisecond)
		}
		d.i64(rep.Pulls, int64(rep.PullTime), fr.evals, int64(fr.fires))
		d.f64(fr.p99Ms)
		out.simInv += int64(recs.Len())
		out.counts["cluster.invocations"] += float64(recs.Len())
		out.counts["cluster.pulls"] += float64(rep.Pulls)
		out.counts["cluster.spills"] += float64(rep.Router.Spills)
		out.counts["cluster.cold_starts"] += float64(cold)
		out.counts["workload.arrivals"] += float64(fr.drawn)
		out.counts["insight.evals"] += float64(fr.evals)
	}
	out.digest = d.sum()
	r.arrivalDigest = arr.sum()
	return out
}
