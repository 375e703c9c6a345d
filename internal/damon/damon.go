// Package damon simulates Linux's Data Access MONitor, the memory profiler
// TOSS uses during its profiling phase (§V-B).
//
// DAMON's key property — the reason the paper picks it over userfaultfd,
// mincore, and PEBS — is that it reports *graded* access counts per adaptive
// region at low overhead, instead of a binary touched/untouched bit. The
// simulator reproduces that interface: given the ground-truth per-page access
// histogram of an invocation, it produces a region-based access pattern with
//
//   - a minimum region size (the paper uses 16 KiB = 4 pages),
//   - adaptive merging of adjacent regions with similar access counts,
//   - a cap on the number of regions (DAMON's scalability mechanism), and
//   - sampling noise derived from the 10 µs sampling interval, seeded so
//     experiments are reproducible.
//
// Profiling is not free: the paper measures ~3 % average execution overhead,
// which callers apply via Config.OverheadFactor while profiling is enabled.
package damon

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"toss/internal/access"
	"toss/internal/guest"
	"toss/internal/simtime"
	"toss/internal/telemetry"
)

// Config holds the monitor's tuning knobs.
type Config struct {
	// SamplingInterval is the time between access samples. The paper uses
	// 10 µs to capture even very short-lived functions.
	SamplingInterval simtime.Duration
	// MinRegionPages is the smallest region DAMON tracks (16 KiB default).
	MinRegionPages int64
	// MaxRegions caps the region count; beyond it, the most similar
	// adjacent regions are merged.
	MaxRegions int
	// NoiseAmplitude is the relative sampling error applied to observed
	// access counts (0.05 = ±5 %).
	NoiseAmplitude float64
	// OverheadFraction is the execution-time overhead profiling imposes
	// (0.03 = 3 %, the paper's measured average).
	OverheadFraction float64
}

// DefaultConfig returns the paper's prototype settings.
func DefaultConfig() Config {
	return Config{
		SamplingInterval: 10 * simtime.Microsecond,
		MinRegionPages:   4, // 16 KiB
		MaxRegions:       1000,
		NoiseAmplitude:   0.05,
		OverheadFraction: 0.03,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.SamplingInterval <= 0 {
		return fmt.Errorf("damon: non-positive sampling interval")
	}
	if c.MinRegionPages < 1 {
		return fmt.Errorf("damon: MinRegionPages %d < 1", c.MinRegionPages)
	}
	if c.MaxRegions < 1 {
		return fmt.Errorf("damon: MaxRegions %d < 1", c.MaxRegions)
	}
	if c.NoiseAmplitude < 0 || c.NoiseAmplitude >= 1 {
		return fmt.Errorf("damon: NoiseAmplitude %v out of [0,1)", c.NoiseAmplitude)
	}
	if c.OverheadFraction < 0 {
		return fmt.Errorf("damon: negative overhead fraction")
	}
	return nil
}

// OverheadFactor returns the multiplier applied to execution time while the
// monitor is attached.
func (c Config) OverheadFactor() float64 { return 1 + c.OverheadFraction }

// RegionRecord is one monitored region and its observed per-page access
// count (DAMON's nr_accesses, normalized per page so regions of different
// sizes compare directly).
type RegionRecord struct {
	Region guest.Region
	// NrAccesses is the observed number of line touches per page in the
	// region over the monitored invocation.
	NrAccesses int64
}

// Pattern is the access-pattern file one monitored invocation produces.
type Pattern struct {
	Records []RegionRecord
}

// TotalPages returns the number of pages covered by the pattern.
func (p Pattern) TotalPages() int64 {
	var n int64
	for _, r := range p.Records {
		n += r.Region.Pages
	}
	return n
}

// CountAt returns the pattern's estimated per-page access count for page pg,
// or 0 when no record covers it. Records are produced sorted by start
// address (Profile and Unified.Regions both guarantee it), so the lookup is
// a binary search.
func (p Pattern) CountAt(pg guest.PageID) int64 {
	lo, hi := 0, len(p.Records)
	for lo < hi {
		mid := (lo + hi) / 2
		r := p.Records[mid].Region
		switch {
		case pg < r.Start:
			hi = mid
		case pg >= r.End():
			lo = mid + 1
		default:
			return p.Records[mid].NrAccesses
		}
	}
	return 0
}

// ToHistogram expands the region records back to per-page counts.
func (p Pattern) ToHistogram() *access.Histogram {
	h := access.NewHistogram()
	for _, rec := range p.Records {
		for pg := rec.Region.Start; pg < rec.Region.End(); pg++ {
			h.Add(pg, rec.NrAccesses)
		}
	}
	return h
}

// Profile runs the monitor over one invocation's ground-truth histogram and
// returns the observed access pattern. totalPages bounds the monitored
// address space; seed drives the deterministic sampling noise.
func (c Config) Profile(truth *access.Histogram, totalPages int64, seed int64) Pattern {
	rng := rand.New(rand.NewSource(seed))
	if truth.Len() == 0 {
		return Pattern{}
	}

	// Pass 1: chunk the touched address space into minimum-size granules,
	// averaging counts within each granule (DAMON cannot see below its
	// minimum region size).
	granules := c.granulate(truth, totalPages)

	// Pass 2: apply sampling noise per granule.
	for i := range granules {
		granules[i].NrAccesses = c.sample(granules[i].NrAccesses, rng)
	}

	// Pass 3: merge adjacent granules with similar counts (DAMON's
	// aggregation), then enforce MaxRegions by merging the most similar
	// adjacent pairs until under the cap.
	records := mergeSimilar(granules, similarityThreshold)
	records = capRegions(records, c.MaxRegions)
	return Pattern{Records: records}
}

// ProfileTraced is Profile plus telemetry: when parent is non-nil it emits a
// KindDAMONSample span covering the monitored execution interval
// [start, end] on the parent's timeline, annotated with the sampling work
// the monitor performed.
func (c Config) ProfileTraced(truth *access.Histogram, totalPages int64, seed int64,
	parent *telemetry.Span, start, end simtime.Duration) Pattern {
	p := c.Profile(truth, totalPages, seed)
	if parent != nil {
		samples := int64(0)
		if c.SamplingInterval > 0 {
			samples = (end - start).Nanoseconds() / c.SamplingInterval.Nanoseconds()
		}
		s := parent.Child(telemetry.KindDAMONSample, "damon-sample", start,
			telemetry.I64("samples", samples),
			telemetry.I64("regions", int64(len(p.Records))),
			telemetry.F64("overhead_frac", c.OverheadFraction))
		s.EndAt(end)
	}
	return p
}

// similarityThreshold is the relative difference below which two adjacent
// regions are considered to have "similar access frequency" and are merged.
const similarityThreshold = 0.2

// granulate groups the touched pages into contiguous granules of at least
// MinRegionPages pages, averaging counts within a granule. Pages never
// touched are not reported (DAMON only tracks populated VMAs), but a touched
// granule absorbs up to MinRegionPages-1 untouched neighbours, slightly
// blurring the truth exactly like a real region-based monitor. Pages at or
// past totalPages lie outside the monitored address space and are ignored.
//
// It scans the histogram's dense counts in place. Granule starts are at
// least MinRegionPages apart, which bounds the output length up front.
func (c Config) granulate(truth *access.Histogram, totalPages int64) []RegionRecord {
	counts := truth.Dense()
	n := min(int64(len(counts)), totalPages)
	if n <= 0 {
		return nil
	}
	out := make([]RegionRecord, 0, min(int64(truth.Len()), (n+c.MinRegionPages-1)/c.MinRegionPages))
	for p := int64(0); p < n; p++ {
		if counts[p] == 0 {
			continue
		}
		end := min(p+c.MinRegionPages, totalPages)
		var sum int64
		for _, v := range counts[p:min(end, n)] {
			sum += v
		}
		pages := end - p
		avg := sum / pages
		if avg < 1 && sum > 0 {
			avg = 1 // a touched granule always samples at least one access
		}
		out = append(out, RegionRecord{
			Region:     guest.Region{Start: guest.PageID(p), Pages: pages},
			NrAccesses: avg,
		})
		p = end - 1
	}
	return out
}

// sample perturbs a true count by the configured noise amplitude.
func (c Config) sample(trueCount int64, rng *rand.Rand) int64 {
	if trueCount <= 0 || c.NoiseAmplitude == 0 {
		return trueCount
	}
	noise := 1 + (rng.Float64()*2-1)*c.NoiseAmplitude
	v := int64(math.Round(float64(trueCount) * noise))
	if v < 1 {
		v = 1
	}
	return v
}

// mergeSimilar folds adjacent regions whose per-page counts differ by less
// than threshold (relative to the larger count).
func mergeSimilar(in []RegionRecord, threshold float64) []RegionRecord {
	if len(in) == 0 {
		return nil
	}
	out := []RegionRecord{in[0]}
	for _, r := range in[1:] {
		last := &out[len(out)-1]
		if last.Region.Adjacent(r.Region) && similar(last.NrAccesses, r.NrAccesses, threshold) {
			merged := weightedMerge(*last, r)
			*last = merged
			continue
		}
		out = append(out, r)
	}
	return out
}

// similar reports whether two counts are within threshold of each other.
func similar(a, b int64, threshold float64) bool {
	if a == b {
		return true
	}
	hi := math.Max(float64(a), float64(b))
	if hi == 0 {
		return true
	}
	return math.Abs(float64(a)-float64(b))/hi <= threshold
}

// weightedMerge combines two adjacent records, averaging counts by pages.
func weightedMerge(a, b RegionRecord) RegionRecord {
	pages := a.Region.Pages + b.Region.Pages
	count := (a.NrAccesses*a.Region.Pages + b.NrAccesses*b.Region.Pages) / pages
	return RegionRecord{
		Region:     guest.Region{Start: a.Region.Start, Pages: pages},
		NrAccesses: count,
	}
}

// capRegions merges the most similar adjacent pairs until len <= max.
func capRegions(in []RegionRecord, max int) []RegionRecord {
	out := append([]RegionRecord(nil), in...)
	for len(out) > max {
		// Find the adjacent pair with minimal absolute count difference.
		best, bestDiff := -1, int64(math.MaxInt64)
		for i := 0; i+1 < len(out); i++ {
			if !out[i].Region.Adjacent(out[i+1].Region) {
				continue
			}
			d := out[i].NrAccesses - out[i+1].NrAccesses
			if d < 0 {
				d = -d
			}
			if d < bestDiff {
				best, bestDiff = i, d
			}
		}
		if best < 0 {
			// No adjacent pairs left to merge; merge the two records with
			// the closest counts regardless of adjacency is not something
			// DAMON does, so stop here.
			break
		}
		out[best] = weightedMerge(out[best], out[best+1])
		out = append(out[:best+1], out[best+2:]...)
	}
	return out
}

// Unified is TOSS's unified access-pattern file: the max-merge of every
// pattern observed during the profiling phase (§V-B). It also implements the
// convergence test that ends profiling.
type Unified struct {
	perPage *access.Histogram
}

// NewUnified returns an empty unified pattern.
func NewUnified() *Unified {
	return &Unified{perPage: access.NewHistogram()}
}

// Fold merges one invocation's pattern into the unified file and reports
// whether the unified pattern changed. "Changed" uses logarithmic count
// buckets: sampling noise that leaves a page in the same magnitude bucket
// does not count as change, otherwise noise alone would keep profiling open
// forever.
func (u *Unified) Fold(p Pattern) (changed bool) {
	for _, rec := range p.Records {
		for pg := rec.Region.Start; pg < rec.Region.End(); pg++ {
			old := u.perPage.Count(pg)
			if rec.NrAccesses > old {
				if Bucket(rec.NrAccesses) != Bucket(old) {
					changed = true
				}
				u.perPage.Add(pg, rec.NrAccesses-old) // max-merge
			}
		}
	}
	return changed
}

// Bucket quantizes an access count into a logarithmic magnitude class.
func Bucket(count int64) int {
	if count <= 0 {
		return 0
	}
	return 1 + int(math.Log2(float64(count)))
}

// Histogram returns the unified per-page counts (a copy).
func (u *Unified) Histogram() *access.Histogram { return u.perPage.Clone() }

// Pages returns the number of distinct pages in the unified pattern.
func (u *Unified) Pages() int { return u.perPage.Len() }

// Regions converts the unified pattern into sorted region records, merging
// adjacent pages whose counts differ by less than mergeDelta absolute
// accesses (the paper's "Access count Merging" with a 100-access threshold).
func (u *Unified) Regions(mergeDelta int64) []RegionRecord {
	counts := u.perPage.Sorted()
	if len(counts) == 0 {
		return nil
	}
	var out []RegionRecord
	cur := RegionRecord{
		Region:     guest.Region{Start: counts[0].Page, Pages: 1},
		NrAccesses: counts[0].Count,
	}
	for _, pc := range counts[1:] {
		adjacent := pc.Page == cur.Region.End()
		delta := pc.Count - cur.NrAccesses
		if delta < 0 {
			delta = -delta
		}
		if adjacent && delta < mergeDelta {
			// Extend, keeping the weighted mean count.
			total := cur.NrAccesses*cur.Region.Pages + pc.Count
			cur.Region.Pages++
			cur.NrAccesses = total / cur.Region.Pages
			continue
		}
		out = append(out, cur)
		cur = RegionRecord{
			Region:     guest.Region{Start: pc.Page, Pages: 1},
			NrAccesses: pc.Count,
		}
	}
	out = append(out, cur)
	sort.Slice(out, func(i, j int) bool { return out[i].Region.Start < out[j].Region.Start })
	return out
}
