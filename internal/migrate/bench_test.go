package migrate

import (
	"testing"

	"toss/internal/simtime"
)

// BenchmarkMigrationEngine drives a drifting hot window through a 4-tier
// engine and reports migrations/s — benchjson surfaces it as
// migrations_per_second in BENCH_experiments.json.
func BenchmarkMigrationEngine(b *testing.B) {
	cfg := DefaultConfig(testHierarchy(2048, 4096, 8192))
	cfg.Seed = 42
	const totalPages = 64 * 512 // 512 extents, 128 MiB guest
	var moves int64
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e, err := New(cfg, totalPages)
		if err != nil {
			b.Fatal(err)
		}
		for epoch := 0; epoch < 50; epoch++ {
			base := (epoch / 2) * 11 % e.Extents()
			for k := 0; k < 24; k++ {
				e.TouchExtent((base+k)%e.Extents(), float64(48-k))
			}
			e.Tick(simtime.Duration(epoch+1) * cfg.Epoch)
		}
		moves += e.Stats().Moves()
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(moves)/b.Elapsed().Seconds(), "migrations/s")
	}
}

// BenchmarkMigrationTick times Tick alone at ext11 scale: a 4096-extent
// guest (pagerank's 262,144 pages) with 613 resident extents, under the
// full-migration policy. Every epoch a 153-extent window of the resident
// set, drifting by 19 extents, gets equal heat, and the seed heat takes
// five values, so the packing order leans on the tie-breaks. Touching and
// truncating the log run with the timer stopped; one op is one Tick.
func BenchmarkMigrationTick(b *testing.B) {
	const (
		nExt     = 4096
		resident = 613
		window   = resident / 4
		drift    = window / 8
	)
	cfg := DefaultConfig(testHierarchy(64*window, 2*64*window, 4*64*window))
	cfg.Seed = 42
	cfg.PrefetchExtents = 2
	e, err := New(cfg, 64*nExt)
	if err != nil {
		b.Fatal(err)
	}
	ext := func(k int) int { return (k % resident) * nExt / resident }
	for k := 0; k < resident; k++ {
		e.SetLevel(e.ExtentRegion(ext(k)), min(k/window, 3))
		e.TouchExtent(ext(k), float64(1+k%5))
	}
	epoch := 0
	touch := func() {
		start := epoch * drift
		for k := 0; k < window; k++ {
			e.TouchExtent(ext(start+k), 64)
		}
		epoch++
	}
	for epoch < 8 {
		touch()
		e.Tick(simtime.Duration(epoch) * cfg.Epoch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		e.log = e.log[:0] // keep memory flat: about 540 moves a Tick
		touch()
		b.StartTimer()
		e.Tick(simtime.Duration(epoch) * cfg.Epoch)
	}
}
