package migrate

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"toss/internal/guest"
	"toss/internal/mem"
	"toss/internal/par"
	"toss/internal/simtime"
	"toss/internal/telemetry"
)

// testHierarchy returns the default 4-tier stack with explicit capacities
// (in pages) on the bounded tiers. The bottom object tier stays unbounded.
func testHierarchy(dram, cxl, ssd int64) mem.Hierarchy {
	h := mem.DefaultHierarchy()
	h.Tiers[0].CapacityPages = dram
	h.Tiers[1].CapacityPages = cxl
	h.Tiers[2].CapacityPages = ssd
	return h
}

// driftChecksum runs a rotating-hot-window workload for 24 epochs and
// returns the migration-log checksum — the workload the determinism test
// replays serially and under an 8-worker pool.
func driftChecksum(seed int64) uint64 {
	cfg := DefaultConfig(testHierarchy(256, 512, 1024))
	cfg.Seed = seed
	e, err := New(cfg, 64*64) // 64 extents
	if err != nil {
		panic(err)
	}
	for epoch := 0; epoch < 24; epoch++ {
		base := (epoch / 3) * 7 % e.Extents()
		for k := 0; k < 6; k++ {
			e.TouchExtent((base+k)%e.Extents(), float64(20-k))
		}
		e.Tick(simtime.Duration(epoch+1) * cfg.Epoch)
	}
	return e.LogChecksum()
}

// TestDeterminismSerialVsParallel pins the byte-determinism rule from
// TIERS.md: the same seed yields a byte-identical migration log whether
// engines run serially or fanned out over an 8-worker par pool.
func TestDeterminismSerialVsParallel(t *testing.T) {
	seeds := make([]int64, 16)
	for i := range seeds {
		seeds[i] = int64(i*1000 + 7)
	}
	serial := make([]uint64, len(seeds))
	for i, s := range seeds {
		serial[i] = driftChecksum(s)
	}
	parallel, err := par.Map(par.New(8), seeds, func(_ int, s int64) (uint64, error) {
		return driftChecksum(s), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if serial[i] != parallel[i] {
			t.Fatalf("seed %d: serial checksum %x != parallel %x", seeds[i], serial[i], parallel[i])
		}
		// Repeat runs must also agree with themselves.
		if again := driftChecksum(seeds[i]); again != serial[i] {
			t.Fatalf("seed %d: rerun checksum %x != first %x", seeds[i], again, serial[i])
		}
	}
	// Different seeds must not all collapse to one log.
	if serial[0] == serial[1] && serial[1] == serial[2] {
		t.Fatalf("checksums do not vary with seed: %x", serial[0])
	}
}

// TestOccupancyInvariant checks that every page is booked to exactly one
// tier through an active migration run.
func TestOccupancyInvariant(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(256, 256, 512))
	cfg.Seed = 3
	total := int64(64 * 40)
	e, err := New(cfg, total)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		var sum int64
		for _, n := range e.Occupancy() {
			sum += n
		}
		if sum != total {
			t.Fatalf("%s: occupancy sums to %d, want %d (%v)", when, sum, total, e.Occupancy())
		}
	}
	check("initial")
	e.SetLevel(guest.Region{Start: 0, Pages: 256}, 0)
	e.SetLevel(guest.Region{Start: 256, Pages: 256}, 1)
	check("after seeding")
	for epoch := 0; epoch < 12; epoch++ {
		base := (epoch * 5) % e.Extents()
		for k := 0; k < 8; k++ {
			e.TouchExtent((base+k)%e.Extents(), 10)
		}
		e.Tick(simtime.Duration(epoch+1) * cfg.Epoch)
		check("after tick")
	}
	// The exported placement must agree with the engine's books.
	occ := e.Placement().Occupancy()
	for i, n := range e.Occupancy() {
		if occ[i] != n {
			t.Fatalf("placement occupancy %v != engine %v", occ, e.Occupancy())
		}
	}
}

// TestStaticNeverMoves: PolicyStatic only decays heat.
func TestStaticNeverMoves(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(128, 128, 128))
	cfg.Policy = PolicyStatic
	e, _ := New(cfg, 64*8)
	for epoch := 0; epoch < 5; epoch++ {
		e.TouchExtent(epoch%e.Extents(), 1000)
		if evs := e.Tick(simtime.Duration(epoch+1) * cfg.Epoch); len(evs) != 0 {
			t.Fatalf("static policy migrated: %v", evs)
		}
	}
	if e.Stats().Moves() != 0 {
		t.Fatalf("static policy recorded moves: %+v", e.Stats())
	}
}

// TestZeroSizeMiddleTier: a zero-capacity CXL tier is skipped by both the
// desired packing and the demotion cascade — no extent ever lands on it.
func TestZeroSizeMiddleTier(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(64, 0, 128))
	cfg.PrefetchExtents = 0
	e, _ := New(cfg, 64*6)
	e.TouchExtent(0, 100)
	e.TouchExtent(1, 50)
	e.Tick(cfg.Epoch)
	if got := e.LevelOfExtent(0); got != 0 {
		t.Fatalf("hottest extent at level %d, want 0 (dram)", got)
	}
	if got := e.LevelOfExtent(1); got != 2 {
		t.Fatalf("second extent at level %d, want 2 (ssd, skipping empty cxl)", got)
	}
	for i := 0; i < e.Extents(); i++ {
		if e.LevelOfExtent(i) == 1 {
			t.Fatalf("extent %d landed on the zero-size middle tier", i)
		}
	}
}

// TestEvictionCascadesPastFullTier: promoting into a full DRAM tier evicts
// the coldest incumbent, and with the next tier also full the eviction
// cascades one level deeper (demotion under a full lower tier).
func TestEvictionCascadesPastFullTier(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(64, 64, 1024))
	cfg.Policy = PolicyPromoteOnly // no background demotion: force the evict path
	cfg.PrefetchExtents = 0
	e, _ := New(cfg, 64*4)
	e.SetLevel(e.ExtentRegion(0), 0) // cold incumbent fills dram
	e.SetLevel(e.ExtentRegion(1), 1) // fills cxl
	e.TouchExtent(0, 1)
	e.TouchExtent(1, 50)
	e.TouchExtent(2, 100) // challenger from the object tier
	evs := e.Tick(cfg.Epoch)
	if got := e.LevelOfExtent(2); got != 0 {
		t.Fatalf("challenger at level %d, want 0", got)
	}
	if got := e.LevelOfExtent(0); got != 2 {
		t.Fatalf("evicted incumbent at level %d, want 2 (cascaded past full cxl)", got)
	}
	if got := e.LevelOfExtent(1); got != 1 {
		t.Fatalf("cxl incumbent at level %d, want 1 (untouched)", got)
	}
	var evicts, promotes int
	for _, ev := range evs {
		switch ev.Reason {
		case ReasonEvict:
			evicts++
		case ReasonPromote:
			promotes++
		}
	}
	if evicts != 1 || promotes != 1 {
		t.Fatalf("want 1 evict + 1 promote, got %d + %d (%v)", evicts, promotes, evs)
	}
}

// TestPrefetchOnPromote: promoting an extent drags its address-space
// successors to the same tier.
func TestPrefetchOnPromote(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(1024, 1024, 1024))
	cfg.PrefetchExtents = 2
	e, _ := New(cfg, 64*10)
	e.TouchExtent(3, 10)
	evs := e.Tick(cfg.Epoch)
	for _, i := range []int{3, 4, 5} {
		if got := e.LevelOfExtent(i); got != 0 {
			t.Fatalf("extent %d at level %d, want 0", i, got)
		}
	}
	var prefetches int
	for _, ev := range evs {
		if ev.Reason == ReasonPrefetch {
			prefetches++
		}
	}
	if prefetches != 2 {
		t.Fatalf("want 2 prefetch events, got %d (%v)", prefetches, evs)
	}
	if got := e.LevelOfExtent(6); got == 0 {
		t.Fatalf("extent beyond the prefetch window was promoted")
	}
}

// TestHysteresisHoldsIncumbent: a challenger below PromoteMargin times the
// incumbent's heat does not displace it; above the margin it does.
func TestHysteresisHoldsIncumbent(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(64, 1024, 1024))
	cfg.PrefetchExtents = 0
	cfg.MinResidencyEpochs = 0
	e, _ := New(cfg, 64*4)
	e.SetLevel(e.ExtentRegion(0), 0)
	// Incumbent heat 10, challenger 12 < 10*1.5: no churn.
	e.TouchExtent(0, 10)
	e.TouchExtent(1, 12)
	e.Tick(cfg.Epoch)
	if e.LevelOfExtent(0) != 0 || e.LevelOfExtent(1) == 0 {
		t.Fatalf("margin violated: incumbent at %d, challenger at %d",
			e.LevelOfExtent(0), e.LevelOfExtent(1))
	}
	// Challenger pushes past the margin: heat decays to 5 vs fresh 30.
	e.TouchExtent(1, 24) // EWMA: 0.5*12-ish + 24 — clearly > 0.5*10*1.5
	e.Tick(2 * cfg.Epoch)
	if e.LevelOfExtent(1) != 0 {
		t.Fatalf("hot challenger stuck at level %d", e.LevelOfExtent(1))
	}
}

// TestWaitForAndBandwidth: migrations cost virtual time on the daemon, an
// execution overlapping an in-flight extent stalls until the move lands,
// and each epoch schedules at most one epoch of bandwidth.
func TestWaitForAndBandwidth(t *testing.T) {
	h := testHierarchy(1<<20, 1<<20, 1<<20)
	// Slow promote bandwidth so moves are visible: 1 MiB/s into dram.
	h.Tiers[0].PromoteBytesPerSec = 1 << 20
	cfg := DefaultConfig(h)
	cfg.PrefetchExtents = 0
	e, _ := New(cfg, 64*64)
	for i := 0; i < 32; i++ {
		e.TouchExtent(i, float64(100-i))
	}
	evs := e.Tick(cfg.Epoch)
	if len(evs) == 0 {
		t.Fatal("no migrations scheduled")
	}
	// One extent = 256 KiB at 1 MiB/s = 250ms per move: only ~4-5 fit the
	// 1s epoch budget.
	if len(evs) >= 32 {
		t.Fatalf("bandwidth budget did not bound the epoch: %d moves", len(evs))
	}
	first := evs[0]
	if first.Done <= first.At {
		t.Fatalf("move has no duration: %+v", first)
	}
	if w := e.WaitFor(first.Region, first.At); w != first.Done-first.At {
		t.Fatalf("WaitFor mid-flight = %v, want %v", w, first.Done-first.At)
	}
	if w := e.WaitFor(first.Region, first.Done+1); w != 0 {
		t.Fatalf("WaitFor after landing = %v, want 0", w)
	}
	if e.Stats().BusyTime <= 0 {
		t.Fatal("daemon busy time not recorded")
	}
}

// TestOracleInstantAndGreedy: the oracle re-packs with no cost, no busy
// time, and no hysteresis.
func TestOracleInstantAndGreedy(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(64, 64, 64))
	cfg.Policy = PolicyOracle
	cfg.PrefetchExtents = 0
	e, _ := New(cfg, 64*8)
	e.SetLevel(e.ExtentRegion(0), 0)
	e.TouchExtent(0, 10)
	e.TouchExtent(1, 11) // barely hotter: oracle has no margin, so it wins dram
	e.Tick(cfg.Epoch)
	if got := e.LevelOfExtent(1); got != 0 {
		t.Fatalf("oracle kept the colder incumbent: challenger at %d", got)
	}
	if e.Stats().BusyTime != 0 {
		t.Fatalf("oracle paid busy time: %v", e.Stats().BusyTime)
	}
	for _, ev := range e.Log() {
		if ev.Done != ev.At {
			t.Fatalf("oracle move has duration: %+v", ev)
		}
	}
	if w := e.WaitFor(guest.Region{Start: 0, Pages: 64 * 8}, 0); w != 0 {
		t.Fatalf("oracle left busy extents: wait %v", w)
	}
}

// TestTouchRegionWeighting: partial extent overlap contributes fractional
// heat; full overlap contributes perPage.
func TestTouchRegionWeighting(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(1024, 1024, 1024))
	e, _ := New(cfg, 64*4)
	e.Touch(guest.Region{Start: 32, Pages: 64}, 8) // half of extent 0, half of extent 1
	if e.pending[0] != 4 || e.pending[1] != 4 {
		t.Fatalf("half-overlap heat = %v/%v, want 4/4", e.pending[0], e.pending[1])
	}
	e.Touch(guest.Region{Start: 128, Pages: 64}, 8) // exactly extent 2
	if e.pending[2] != 8 {
		t.Fatalf("full-overlap heat = %v, want 8", e.pending[2])
	}
}

// TestMetricsCounters: a wired telemetry registry sees the migrate.*
// counters move.
func TestMetricsCounters(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(1024, 1024, 1024))
	e, _ := New(cfg, 64*10)
	m := telemetry.NewMetrics()
	e.Metrics = m
	e.TouchExtent(2, 50)
	e.Tick(cfg.Epoch)
	if m.Counter(telemetry.MetricMigratePromotions).Value() == 0 {
		t.Fatal("promotion counter did not move")
	}
	if m.Counter(telemetry.MetricMigrateMovedBytes).Value() == 0 {
		t.Fatal("moved-bytes counter did not move")
	}
}

// TestConfigValidate rejects the obvious misconfigurations.
func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(testHierarchy(1, 1, 1))
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"extent", func(c *Config) { c.ExtentPages = 0 }},
		{"epoch", func(c *Config) { c.Epoch = 0 }},
		{"decay", func(c *Config) { c.Decay = 1 }},
		{"margin", func(c *Config) { c.PromoteMargin = 0.5 }},
		{"residency", func(c *Config) { c.MinResidencyEpochs = -1 }},
		{"prefetch", func(c *Config) { c.PrefetchExtents = -1 }},
	} {
		bad := good
		tc.mut(&bad)
		if bad.Validate() == nil {
			t.Fatalf("%s: invalid config accepted", tc.name)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestTimelineRender smoke-tests the ASCII timeline used by the faasim demo.
func TestTimelineRender(t *testing.T) {
	cfg := DefaultConfig(testHierarchy(256, 512, 1024))
	e, _ := New(cfg, 64*32)
	tl := NewTimeline(e)
	for epoch := 0; epoch < 4; epoch++ {
		e.TouchExtent(epoch*3, 50)
		e.Tick(simtime.Duration(epoch+1) * cfg.Epoch)
		tl.Capture(e, "epoch")
	}
	out := tl.Render(40)
	if len(out) == 0 || out == "(no epochs captured)\n" {
		t.Fatalf("empty timeline: %q", out)
	}
	if s := Summary(e); len(s) == 0 {
		t.Fatal("empty summary")
	}
}

// TestPolicyNames round-trips the policy string forms ext11 and the CLIs use.
func TestPolicyNames(t *testing.T) {
	for _, p := range Policies() {
		got, ok := PolicyByName(p.String())
		if !ok || got != p {
			t.Fatalf("round-trip failed for %v", p)
		}
	}
	if _, ok := PolicyByName("bogus"); ok {
		t.Fatal("bogus policy resolved")
	}
}

// TestTickMatchesReference drives Tick and the reference engine below
// through the same random small runs and demands identical Log, Stats,
// Levels and Occupancy after every Tick: 1-40 extents with a short last
// extent, absent and one-extent tiers, all four policies, 0-2 prefetch
// extents, and heat drawn from a handful of values so the packing and
// victim orders lean on the tie-breaks.
func TestTickMatchesReference(t *testing.T) {
	const ext = 4 // pages per extent
	rng := rand.New(rand.NewSource(7))
	heats := []float64{0, 1, 1, 2, 3, 8}
	var total Stats
	for run := 0; run < 600; run++ {
		nExt := 1 + rng.Intn(40)
		capacity := func() int64 {
			switch rng.Intn(4) {
			case 0:
				return 0 // absent tier
			case 1:
				return ext // one extent
			}
			return int64(rng.Intn(nExt+1)*ext + rng.Intn(ext))
		}
		h := testHierarchy(capacity(), capacity(), capacity())
		if rng.Intn(2) == 0 {
			// 64 KiB/s: a 16 KiB extent takes 250 ms, so the epoch's
			// bandwidth budget cuts Ticks short.
			for l := range h.Tiers {
				h.Tiers[l].PromoteBytesPerSec, h.Tiers[l].DemoteBytesPerSec = 64<<10, 64<<10
			}
		}
		cfg := DefaultConfig(h)
		cfg.Policy = Policies()[rng.Intn(4)]
		cfg.ExtentPages = ext
		cfg.PrefetchExtents = rng.Intn(3)
		cfg.MinResidencyEpochs = rng.Intn(3)
		cfg.PromoteMargin = []float64{1, 1.5}[rng.Intn(2)]
		cfg.Seed = int64(run)
		pages := int64(nExt*ext - rng.Intn(ext))
		got, err := New(cfg, pages)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := New(cfg, pages)
		for i := 0; i < nExt; i++ {
			if lv := rng.Intn(h.Levels()); lv != h.Bottom() {
				got.SetLevel(got.ExtentRegion(i), lv)
				want.SetLevel(want.ExtentRegion(i), lv)
			}
		}
		for epoch := 1; epoch <= 12; epoch++ {
			for k := rng.Intn(nExt + 1); k > 0; k-- {
				i, heat := rng.Intn(nExt), heats[rng.Intn(len(heats))]
				got.TouchExtent(i, heat)
				want.TouchExtent(i, heat)
			}
			now := simtime.Duration(epoch) * cfg.Epoch
			got.Tick(now)
			refTick(want, now)
			if !slices.Equal(got.Log(), want.Log()) || got.Stats() != want.Stats() ||
				!slices.Equal(got.Levels(), want.Levels()) || !slices.Equal(got.Occupancy(), want.Occupancy()) {
				t.Fatalf("run %d (%d extents, %v, prefetch %d, capacities %d/%d/%d) epoch %d diverged:\n"+
					"got  %v\n     %+v\nwant %v\n     %+v",
					run, nExt, cfg.Policy, cfg.PrefetchExtents, h.Capacity(0), h.Capacity(1), h.Capacity(2),
					epoch, got.Log(), got.Stats(), want.Log(), want.Stats())
			}
		}
		s := got.Stats()
		total.Promotions += s.Promotions
		total.Demotions += s.Demotions
		total.Evictions += s.Evictions
		total.Prefetches += s.Prefetches
	}
	if total.Promotions == 0 || total.Demotions == 0 || total.Evictions == 0 || total.Prefetches == 0 {
		t.Fatalf("the runs miss a move kind: %+v", total)
	}
}

// TestHottestMatchesSort: the partial selection's prefix equals the prefix
// of a full sort for every k, with keys and jitters drawn from so few
// values that the index tie-break decides many pairs.
func TestHottestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for run := 0; run < 2000; run++ {
		n := rng.Intn(120)
		s := make([]keyed, n)
		for i := range s {
			s[i] = keyed{float64(rng.Intn(4)), uint64(rng.Intn(3)), rng.Intn(n)}
		}
		want := slices.Clone(s)
		slices.SortFunc(want, hotter)
		k := rng.Intn(n + 3)
		if got := hottest(slices.Clone(s), k); !slices.Equal(got, want[:min(k, n)]) {
			t.Fatalf("n %d k %d: hottest %v, sorted prefix %v", n, k, got, want[:min(k, n)])
		}
	}
}

// The reference engine: Tick as it was before the sort-once rewrite —
// sort.Slice re-hashing the jitter on every comparison, every cold extent
// in every packing sort, and a full scan of all extents for each eviction
// victim. It is slow and obviously correct; TestTickMatchesReference drives
// it and the real Tick through the same runs and demands identical results.

// refHotterFirst orders extents by (heat desc, jitter, index) given a heat
// vector.
func refHotterFirst(e *Engine, order []int, heatOf func(int) float64) {
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		hi, hj := heatOf(i), heatOf(j)
		if hi != hj {
			return hi > hj
		}
		ji, jj := e.jitter(i), e.jitter(j)
		if ji != jj {
			return ji < jj
		}
		return i < j
	})
}

func refTick(e *Engine, now simtime.Duration) []Event {
	e.epoch++
	e.stats.Epochs++
	for i := range e.heat {
		e.heat[i] = e.cfg.Decay*e.heat[i] + e.pending[i]
		e.pending[i] = 0
	}
	if e.cfg.Policy == PolicyStatic {
		return nil
	}

	oracle := e.cfg.Policy == PolicyOracle
	desired := refPackDesired(e, oracle)

	logStart := len(e.log)
	var order []int
	// The daemon's schedule cursor: migrations serialize on the daemon and
	// this epoch may schedule at most one epoch of moving time.
	cursor := e.busyUntil
	if cursor < now {
		cursor = now
	}
	deadline := now + e.cfg.Epoch
	budgetLeft := func() bool { return oracle || cursor < deadline }

	exec := func(i, to int, reason Reason) {
		from := int(e.level[i])
		if from == to {
			return
		}
		region := e.ExtentRegion(i)
		cost := e.cfg.Hierarchy.MoveCost(from, to, region.Pages)
		at, done := cursor, cursor
		if !oracle {
			done = cursor + cost
			cursor = done
			e.readyAt[i] = done
			e.stats.BusyTime += cost
		}
		e.moveOccupancy(i, to)
		e.level[i] = uint8(to)
		e.movedAt[i] = e.epoch
		e.stats.MovedPages += region.Pages
		switch reason {
		case ReasonPromote:
			e.stats.Promotions++
		case ReasonDemote:
			e.stats.Demotions++
		case ReasonEvict:
			e.stats.Evictions++
		case ReasonPrefetch:
			e.stats.Prefetches++
		}
		e.log = append(e.log, Event{
			At: at, Done: done, Extent: i, Region: region,
			From: from, To: to, Reason: reason, Heat: e.heat[i],
		})
	}

	// roomAt finds the highest level in [want, bottom] with room for pages,
	// starting at the wanted level and cascading down — "demotion under a
	// full lower tier" lands one level deeper (the bottom is unbounded).
	roomAt := func(want int, pages int64) int {
		for l := want; l < e.cfg.Hierarchy.Levels(); l++ {
			if e.occupancy[l]+pages <= e.cfg.Hierarchy.Capacity(l) {
				return l
			}
		}
		return e.cfg.Hierarchy.Bottom()
	}

	cooled := func(i int) bool {
		return oracle || int(e.epoch-e.movedAt[i]) >= e.cfg.MinResidencyEpochs
	}

	// Background demotion (full-migration and oracle): drain cold extents
	// down, coldest first, so reclamation frees capacity before promotions
	// need it.
	if e.cfg.Policy == PolicyFull || oracle {
		order = order[:0]
		for i := 0; i < e.nExt; i++ {
			if int(desired[i]) > int(e.level[i]) && cooled(i) {
				order = append(order, i)
			}
		}
		refHotterFirst(e, order, func(i int) float64 { return -e.heat[i] }) // coldest first
		for _, i := range order {
			if !budgetLeft() {
				break
			}
			exec(i, roomAt(int(desired[i]), e.ExtentRegion(i).Pages), ReasonDemote)
		}
	}

	// Promotions, hottest first. A full target tier evicts its coldest
	// incumbent one level down (cascading past full tiers) to make room.
	order = order[:0]
	for i := 0; i < e.nExt; i++ {
		if int(desired[i]) < int(e.level[i]) && cooled(i) {
			order = append(order, i)
		}
	}
	refHotterFirst(e, order, func(i int) float64 { return e.heat[i] })
	var promoted []int
	for _, i := range order {
		if !budgetLeft() {
			break
		}
		target := int(desired[i])
		if !refMakeRoom(e, target, e.ExtentRegion(i).Pages, exec, roomAt, budgetLeft) {
			continue
		}
		exec(i, target, ReasonPromote)
		promoted = append(promoted, i)
	}

	// Prefetch-on-promote: pull each promoted extent's address-space
	// successors to the same level — sequential access means they are the
	// likely-next pages.
	if e.cfg.PrefetchExtents > 0 {
		for _, i := range promoted {
			target := int(e.level[i])
			for k := 1; k <= e.cfg.PrefetchExtents; k++ {
				j := i + k
				if j >= e.nExt || !budgetLeft() {
					break
				}
				if int(e.level[j]) <= target || e.movedAt[j] == e.epoch {
					continue
				}
				if !refMakeRoom(e, target, e.ExtentRegion(j).Pages, exec, roomAt, budgetLeft) {
					break
				}
				exec(j, target, ReasonPrefetch)
			}
		}
	}

	if !oracle && cursor > e.busyUntil {
		e.busyUntil = cursor
	}
	return e.log[logStart:]
}

func refMakeRoom(e *Engine, target int, pages int64,
	exec func(i, to int, reason Reason), roomAt func(int, int64) int, budgetLeft func() bool) bool {
	if e.cfg.Policy == PolicyStatic {
		return false
	}
	for e.occupancy[target]+pages > e.cfg.Hierarchy.Capacity(target) {
		if !budgetLeft() {
			return false
		}
		victim := -1
		for i := 0; i < e.nExt; i++ {
			if int(e.level[i]) != target || e.movedAt[i] == e.epoch {
				continue
			}
			if victim < 0 || e.heat[i] < e.heat[victim] ||
				(e.heat[i] == e.heat[victim] && e.jitter(i) < e.jitter(victim)) {
				victim = i
			}
		}
		if victim < 0 {
			return false // nothing evictable (everything moved this epoch)
		}
		exec(victim, roomAt(target+1, e.ExtentRegion(victim).Pages), ReasonEvict)
	}
	return true
}

func refPackDesired(e *Engine, oracle bool) []uint8 {
	desired := make([]uint8, e.nExt)
	bottom := uint8(e.cfg.Hierarchy.Bottom())
	for i := range desired {
		desired[i] = bottom
	}
	assigned := make([]bool, e.nExt)
	order := make([]int, e.nExt)
	for l := 0; l < e.cfg.Hierarchy.Levels()-1; l++ {
		order = order[:0]
		for i := 0; i < e.nExt; i++ {
			if !assigned[i] {
				order = append(order, i)
			}
		}
		score := func(i int) float64 {
			if !oracle && int(e.level[i]) == l {
				return e.heat[i] * e.cfg.PromoteMargin
			}
			return e.heat[i]
		}
		refHotterFirst(e, order, score)
		capLeft := e.cfg.Hierarchy.Capacity(l)
		for _, i := range order {
			pages := e.ExtentRegion(i).Pages
			if pages > capLeft {
				break
			}
			// Cold extents never deserve a bounded tier: zero heat stays
			// at the bottom so empty capacity is not filled with garbage.
			if e.heat[i] <= 0 {
				break
			}
			desired[i] = uint8(l)
			assigned[i] = true
			capLeft -= pages
		}
	}
	return desired
}
