package microvm

import (
	"math/rand"
	"testing"

	"toss/internal/guest"
)

// boolSet is the page-at-a-time reference the word bitset must match.
type boolSet []bool

func (s boolSet) setRange(r guest.Region) {
	for p := r.Start; p < r.End(); p++ {
		s[p] = true
	}
}

// touch is the per-page reference for Machine.touch: mark r resident and
// split the newly resident pages into stored and zero-fill ones.
func (s boolSet) touch(stored boolSet, r guest.Region) (newStored, newZero int64) {
	for p := r.Start; p < r.End(); p++ {
		if s[p] {
			continue
		}
		s[p] = true
		if stored != nil && stored[p] {
			newStored++
		} else {
			newZero++
		}
	}
	return newStored, newZero
}

func (s boolSet) regions() []guest.Region {
	var out []guest.Region
	for p, on := range s {
		if !on {
			continue
		}
		if n := len(out); n > 0 && out[n-1].End() == guest.PageID(p) {
			out[n-1].Pages++
		} else {
			out = append(out, guest.Region{Start: guest.PageID(p), Pages: 1})
		}
	}
	return out
}

func sameRegions(a, b []guest.Region) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randRegion draws a region inside [0, n), biased towards word edges and
// runs that span several words.
func randRegion(rng *rand.Rand, n int64) guest.Region {
	start := rng.Int63n(n)
	if rng.Intn(3) == 0 {
		start -= start % 64
	}
	pages := 1 + rng.Int63n(min(n-start, 200))
	return guest.Region{Start: guest.PageID(start), Pages: pages}
}

// TestBitsetMatchesBoolReference pins the word-granular residency set to a
// []bool reference on random small guests: setRange, regions, and touch's
// (stored, zero) split with and without a stored set.
func TestBitsetMatchesBoolReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Int63n(300)
		ref, got := make(boolSet, n), newBitset(n)
		for k := rng.Intn(6); k > 0; k-- {
			r := randRegion(rng, n)
			ref.setRange(r)
			got.setRange(r)
		}
		if !sameRegions(got.regions(), ref.regions()) {
			t.Fatalf("trial %d (n=%d): regions = %v, want %v", trial, n, got.regions(), ref.regions())
		}

		var refStored boolSet
		m := &Machine{resident: newBitset(n)}
		if trial%2 == 0 {
			refStored, m.stored = ref, got
		}
		refRes := make(boolSet, n)
		for k := 1 + rng.Intn(8); k > 0; k-- {
			r := randRegion(rng, n)
			ws, wz := refRes.touch(refStored, r)
			gs, gz := m.touch(r)
			if gs != ws || gz != wz {
				t.Fatalf("trial %d (n=%d, stored=%v): touch(%v) = (%d, %d), want (%d, %d)",
					trial, n, refStored != nil, r, gs, gz, ws, wz)
			}
		}
		if !sameRegions(m.resident.regions(), refRes.regions()) {
			t.Fatalf("trial %d: resident after touches = %v, want %v", trial, m.resident.regions(), refRes.regions())
		}
	}
}
