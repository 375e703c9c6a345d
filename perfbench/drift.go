package main

import (
	"fmt"

	"toss/internal/access"
	"toss/internal/core"
	"toss/internal/experiments"
	"toss/internal/guest"
	"toss/internal/mem"
	"toss/internal/migrate"
	"toss/internal/par"
	"toss/internal/simtime"
	"toss/internal/stats"
	"toss/internal/workload"
)

// tier_drift: the ext11 frontier. Three tier shapes x four migration
// policies over pagerank's drifting hot window, seeded from pagerank's TOSS
// build (at the canonical seed, see buildTOSS), 48 epochs of four
// invocations each. The workload seed drives the engines' tie-breaks.

const (
	driftEpochs       = 48
	driftInvPerEpoch  = 4
	driftDirectLevels = 2
	driftFunction     = "pagerank"
)

var driftShapes = []struct {
	name     string
	dramFrac float64
}{{"lean", 0.5}, {"matched", 1.0}, {"ample", 1.5}}

// driftScan is the per-extent access burst of one invocation over the hot
// window.
var driftScan = access.Event{
	LinesPerPage: guest.LinesPerPage,
	Repeat:       1,
	Kind:         access.Read,
	Pattern:      access.Random,
	HitRatio:     0.2,
	CPUPerLine:   0.5,
}

type driftRunner struct {
	b             *bench
	epochs        int
	base          mem.Hierarchy
	totalPages    int64
	seedPlacement *mem.MultiPlacement
	heat          []core.HeatRegion
	resident      []int
	windowExtents int
	extPages      int64
	drift         int
	residentPages int64
	allDRAMCost   float64
	// changed counts the set-up build's profiling folds that changed the
	// unified pattern.
	changed int64
}

func setupDrift(b *bench, tr *tracer) (runner, error) {
	cfg := experiments.NewSuite().Core
	spec := workload.ByNameMust(driftFunction)
	op := tr.op()
	var fr fnResult
	tiered, pd, _, err := buildTOSS(b, tr, op, -1, cfg, spec, &fr)
	if err != nil {
		return nil, err
	}
	r := &driftRunner{b: b, epochs: driftEpochs, base: mem.DefaultHierarchy(), totalPages: tiered.GuestPages, changed: fr.changed}
	if b.scale < 1 {
		r.epochs = max(12, int(driftEpochs*b.scale))
	}
	id := tr.begin("snapshot.SeedPlacement", op, -1)
	r.seedPlacement, err = tiered.SeedPlacement(r.base.Levels(), 0, 1, r.base.Bottom())
	tr.end(id, 1)
	if b.op(err) != nil {
		return nil, err
	}
	id = tr.begin("core.HeatRegions", op, -1)
	r.heat = pd.HeatRegions(cfg.MergeDelta)
	tr.end(id, 1)
	id = tr.begin("migrate.New", op, -1)
	probe, err := migrate.New(migrate.DefaultConfig(r.base), r.totalPages)
	tr.end(id, 1)
	if b.op(err) != nil {
		return nil, err
	}
	for i := 0; i < probe.Extents(); i++ {
		if r.seedPlacement.LevelOf(probe.ExtentRegion(i).Start) != r.base.Bottom() {
			r.resident = append(r.resident, i)
		}
	}
	if len(r.resident) < 8 {
		return nil, b.op(fmt.Errorf("tier_drift: only %d resident extents", len(r.resident)))
	}
	r.windowExtents = len(r.resident) / 4
	r.extPages = probe.ExtentRegion(r.resident[0]).Pages
	r.drift = max(1, r.windowExtents/8)
	r.residentPages = int64(len(tiered.FastMem.Pages) + len(tiered.SlowMem.Pages))
	r.allDRAMCost = float64(r.residentPages) * r.base.Tiers[0].CostPerPage
	return r, nil
}

type driftCell struct{ shape, policy int }

type driftResult struct {
	cost, meanMs, p99Ms, hitPct, movedMiB, stallMs float64
	moves, epochs, charges                         int64
	logSum                                         uint64
}

func (r *driftRunner) pass(tr *tracer) (func() outcome, error) {
	var cells []driftCell
	for si := range driftShapes {
		for pi := range migrate.Policies() {
			cells = append(cells, driftCell{si, pi})
		}
	}
	res, err := par.Map(r.b.pool, cells, func(ci int, c driftCell) (driftResult, error) {
		return r.cell(tr, ci, c)
	})
	if err != nil {
		return nil, err
	}
	return func() outcome { return r.summarize(cells, res) }, nil
}

// cell runs one (shape, policy) cell exactly as ext11 does. The per-extent
// charge and touch calls of an epoch are issued in two loops so each layer
// gets one span per epoch; touching only accumulates heat that the next
// Tick consumes, so the split changes no result.
func (r *driftRunner) cell(tr *tracer, ci int, c driftCell) (driftResult, error) {
	b := r.b
	op := tr.op()
	root := tr.begin("bench.cell", op, -1)
	defer tr.end(root, 1)
	var out driftResult

	h := r.base.Clone()
	h.Tiers[0].CapacityPages = int64(driftShapes[c.shape].dramFrac * float64(int64(r.windowExtents)*r.extPages))
	h.Tiers[1].CapacityPages = 2 * h.Tiers[0].CapacityPages
	h.Tiers[2].CapacityPages = 4 * h.Tiers[0].CapacityPages
	cfg := migrate.DefaultConfig(h)
	cfg.Policy = migrate.Policies()[c.policy]
	cfg.ExtentPages = r.extPages
	cfg.PrefetchExtents = r.drift
	cfg.Seed = b.seed*1000 + 11*64 + int64(ci)
	id := tr.begin("migrate.New", op, root)
	eng, err := migrate.New(cfg, r.totalPages)
	tr.end(id, 1)
	if b.op(err) != nil {
		return out, err
	}

	// Seed placement: fast entries fill DRAM and spill down, slow entries
	// start at CXL and spill down, non-resident pages stay at the bottom.
	id = tr.begin("migrate.SetLevel", op, root)
	left := make([]int64, h.Levels())
	for l := range left {
		left[l] = h.Capacity(l)
	}
	for i := 0; i < eng.Extents(); i++ {
		reg := eng.ExtentRegion(i)
		want := r.seedPlacement.LevelOf(reg.Start)
		for want < h.Bottom() && left[want] < reg.Pages {
			want++
		}
		if want < h.Bottom() {
			left[want] -= reg.Pages
		}
		eng.SetLevel(reg, want)
	}
	tr.end(id, int64(eng.Extents()))
	id = tr.begin("migrate.Touch", op, root)
	for _, hr := range r.heat {
		eng.Touch(hr.Region, hr.PerPage)
	}
	tr.end(id, int64(len(r.heat)))
	id = tr.begin("migrate.Tick", op, root)
	eng.Tick(0)
	tr.end(id, 1)

	meter := mem.NewMultiMeter(h.Levels())
	lat := make([]simtime.Duration, 0, r.epochs*driftInvPerEpoch)
	var hitSum, hitN int64
	var stall simtime.Duration
	window := func(start, k int) int { return r.resident[(start+k)%len(r.resident)] }
	for ep := 0; ep < r.epochs; ep++ {
		start := (ep * r.drift) % len(r.resident)
		epochStart := simtime.Duration(ep+1) * cfg.Epoch

		var direct, fetch simtime.Duration
		id = tr.begin("mem.ChargePages", op, root)
		for k := 0; k < r.windowExtents; k++ {
			i := window(start, k)
			reg := eng.ExtentRegion(i)
			lv := eng.LevelOfExtent(i)
			if lv < driftDirectLevels {
				direct += meter.ChargePages(h, driftScan, lv, 1, reg.Pages)
			} else {
				fetch += h.MoveCost(lv, 0, reg.Pages)
				direct += meter.ChargePages(h, driftScan, 0, 1, reg.Pages)
			}
			if lv == 0 {
				hitSum++
			}
			hitN++
		}
		tr.end(id, int64(r.windowExtents))
		out.charges += int64(r.windowExtents)
		id = tr.begin("migrate.TouchExtent", op, root)
		for k := 0; k < r.windowExtents; k++ {
			eng.TouchExtent(window(start, k), float64(driftScan.TouchesPerPage()))
		}
		tr.end(id, int64(r.windowExtents))

		for inv := 0; inv < driftInvPerEpoch; inv++ {
			at := epochStart + simtime.Duration(inv+1)*cfg.Epoch/(driftInvPerEpoch+1)
			var wait simtime.Duration
			id = tr.begin("migrate.WaitFor", op, root)
			for k := 0; k < r.windowExtents; k++ {
				if w := eng.WaitFor(eng.ExtentRegion(window(start, k)), at); w > wait {
					wait = w
				}
			}
			tr.end(id, int64(r.windowExtents))
			l := direct + wait
			if inv == 0 {
				l += fetch
			}
			lat = append(lat, l)
			stall += wait
		}
		id = tr.begin("migrate.Tick", op, root)
		eng.Tick(epochStart + cfg.Epoch)
		tr.end(id, 1)
	}
	b.op(nil)

	occ := eng.Occupancy()
	var placed int64
	for l := 0; l < h.Bottom(); l++ {
		placed += occ[l]
	}
	bottomResident := max(0, r.residentPages-placed)
	st := eng.Stats()
	var mean float64
	for _, d := range lat {
		mean += float64(d)
	}
	mean /= float64(len(lat))
	out.cost = h.ProvisionedCost(bottomResident) / r.allDRAMCost
	out.meanMs = mean / float64(simtime.Millisecond)
	out.p99Ms = float64(stats.NearestRankInPlace(lat, 99)) / float64(simtime.Millisecond)
	out.hitPct = 100 * float64(hitSum) / float64(hitN)
	out.moves = st.Moves()
	out.movedMiB = float64(st.MovedPages) * guest.PageSize / (1 << 20)
	out.stallMs = float64(stall) / float64(simtime.Millisecond)
	out.epochs = int64(eng.Epochs())
	out.logSum = eng.LogChecksum()
	return out, nil
}

func (r *driftRunner) summarize(cells []driftCell, res []driftResult) outcome {
	d := newDigest()
	out := outcome{counts: map[string]float64{"core.changed_folds": float64(r.changed)}}
	var fullP99, fullCost []float64
	pols := migrate.Policies()
	for i, c := range cells {
		x := res[i]
		r.b.compare("ext11", driftShapes[c.shape].name, pols[c.policy].String(),
			fmt.Sprintf("%.3f", x.cost),
			fmt.Sprintf("%.2f", x.meanMs),
			fmt.Sprintf("%.2f", x.p99Ms),
			fmt.Sprintf("%.1f", x.hitPct),
			fmt.Sprintf("%d", x.moves),
			fmt.Sprintf("%.1f", x.movedMiB),
			fmt.Sprintf("%.2f", x.stallMs))
		d.f64(x.cost, x.meanMs, x.p99Ms, x.hitPct, x.movedMiB, x.stallMs)
		d.i64(x.moves, x.epochs)
		d.u64(x.logSum)
		if pols[c.policy] == migrate.PolicyFull {
			fullP99 = append(fullP99, x.p99Ms)
			fullCost = append(fullCost, x.cost)
		}
		out.simInv += int64(r.epochs * driftInvPerEpoch)
		out.counts["migrate.epochs"] += float64(x.epochs)
		out.counts["migrate.moves"] += float64(x.moves)
		out.counts["migrate.moved_mib"] += x.movedMiB
		out.counts["migrate.stall_ms"] += x.stallMs
		out.counts["mem.charges"] += float64(x.charges)
	}
	out.digest = d.sum()
	out.p99Ms = stats.Mean(fullP99)
	out.memCost = stats.Mean(fullCost)
	return out
}
