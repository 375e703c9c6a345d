package snapshot

import (
	"math/rand"
	"testing"

	"toss/internal/guest"
)

func TestResidentRegionsMemoized(t *testing.T) {
	m := NewMemory("f", 100, []guest.Region{{Start: 3, Pages: 4}, {Start: 10, Pages: 2}})
	r1 := m.ResidentRegions()
	r2 := m.ResidentRegions()
	if len(r1) != 2 || r1[0] != (guest.Region{Start: 3, Pages: 4}) || r1[1] != (guest.Region{Start: 10, Pages: 2}) {
		t.Fatalf("regions = %v", r1)
	}
	if &r1[0] != &r2[0] {
		t.Error("ResidentRegions not memoized: recomputed for unchanged memory")
	}

	// Growing the page map invalidates the cache.
	m.Pages[50] = DigestFor("f", 50)
	r3 := m.ResidentRegions()
	if len(r3) != 3 || r3[2] != (guest.Region{Start: 50, Pages: 1}) {
		t.Fatalf("regions after growth = %v", r3)
	}
}

func TestResidentRegionsMergesAdjacent(t *testing.T) {
	// Pages added out of order and adjacently must still yield one merged,
	// sorted region — identical to guest.NormalizeRegions semantics.
	m := &Memory{GuestPages: 64, Pages: map[guest.PageID]PageDigest{}}
	for _, p := range []guest.PageID{7, 5, 6, 20, 8} {
		m.Pages[p] = DigestFor("f", p)
	}
	got := m.ResidentRegions()
	want := []guest.Region{{Start: 5, Pages: 4}, {Start: 20, Pages: 1}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("regions = %v, want %v", got, want)
	}
}

func TestResidentRegionsEmpty(t *testing.T) {
	m := &Memory{GuestPages: 8, Pages: map[guest.PageID]PageDigest{}}
	if got := m.ResidentRegions(); got != nil {
		t.Fatalf("empty memory regions = %v, want nil", got)
	}
}

// TestNewMemoryMatchesReference pins capture to its definitions on random
// small inputs: every digest equals DigestFor, the page set is the union of
// the resident regions, and the region cache seeded at capture equals a
// recompute from the page map.
func TestNewMemoryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	names := []string{"", "f", "json_load_dump", "\xff\x00 name"}
	for trial := 0; trial < 300; trial++ {
		fn := names[rng.Intn(len(names))]
		var resident []guest.Region
		want := map[guest.PageID]bool{}
		for k := rng.Intn(6); k > 0; k-- {
			r := guest.Region{Start: guest.PageID(rng.Intn(200)), Pages: int64(rng.Intn(40))}
			resident = append(resident, r)
			for p := r.Start; p < r.End(); p++ {
				want[p] = true
			}
		}
		m := NewMemory(fn, 256, resident)
		if len(m.Pages) != len(want) {
			t.Fatalf("trial %d: %d pages captured, want %d", trial, len(m.Pages), len(want))
		}
		for p := range want {
			if got, ok := m.Pages[p]; !ok || got != DigestFor(fn, p) {
				t.Fatalf("trial %d: page %d digest %#x (present %v), want %#x", trial, p, got, ok, DigestFor(fn, p))
			}
		}
		seeded := m.ResidentRegions()
		recomputed := (&Memory{GuestPages: m.GuestPages, Pages: m.Pages}).ResidentRegions()
		if len(seeded) != len(recomputed) {
			t.Fatalf("trial %d: seeded regions %v, recomputed %v", trial, seeded, recomputed)
		}
		for i := range seeded {
			if seeded[i] != recomputed[i] {
				t.Fatalf("trial %d: seeded regions %v, recomputed %v", trial, seeded, recomputed)
			}
		}
	}
}
