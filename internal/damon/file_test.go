package damon

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"toss/internal/guest"
)

func TestPatternRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.damon")
	want := Pattern{Records: []RegionRecord{
		{Region: guest.Region{Start: 0, Pages: 16}, NrAccesses: 120},
		{Region: guest.Region{Start: 100, Pages: 4}, NrAccesses: 7},
	}}
	if err := WritePattern(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPattern(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("records = %d, want %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got.Records[i], want.Records[i])
		}
	}
}

func TestPatternEmptyRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.damon")
	if err := WritePattern(path, Pattern{}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPattern(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 0 {
		t.Errorf("empty pattern read back %d records", len(got.Records))
	}
}

func TestReadPatternRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.damon")
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPattern(path); err == nil {
		t.Error("junk accepted")
	}
	// Valid header, truncated body.
	good := filepath.Join(dir, "good.damon")
	if err := WritePattern(good, Pattern{Records: []RegionRecord{
		{Region: guest.Region{Start: 0, Pages: 4}, NrAccesses: 9},
	}}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(good)
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPattern(path); err == nil {
		t.Error("truncated pattern accepted")
	}
	if _, err := ReadPattern(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestUnifiedRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "u.damon")
	u := NewUnified()
	u.Fold(Pattern{Records: []RegionRecord{
		{Region: guest.Region{Start: 3, Pages: 5}, NrAccesses: 42},
		{Region: guest.Region{Start: 50, Pages: 2}, NrAccesses: 9000},
	}})
	if err := WriteUnified(path, u); err != nil {
		t.Fatal(err)
	}
	got, err := ReadUnified(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Histogram().Equal(u.Histogram()) {
		t.Error("unified round trip lost counts")
	}
	// Folding the same data into the restored unified must report no
	// change — the convergence state survives persistence.
	if got.Fold(Pattern{Records: []RegionRecord{
		{Region: guest.Region{Start: 3, Pages: 5}, NrAccesses: 42},
	}}) {
		t.Error("restored unified treats known pattern as change")
	}
}

func TestReadUnifiedRejectsWrongMagic(t *testing.T) {
	dir := t.TempDir()
	// A pattern file is not a unified file.
	p := filepath.Join(dir, "p.damon")
	if err := WritePattern(p, Pattern{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadUnified(p); err == nil {
		t.Error("pattern file accepted as unified")
	}
}

// TestReadPatternBoundsHostileCounts rewrites the record count of a valid
// pattern file: every count the file cannot hold — including ones far below
// the old 1<<30 plausibility cap — must be rejected without allocating for
// it. Modelled on snapshot's TestReadSingleBoundsHostileCounts.
func TestReadPatternBoundsHostileCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.damon")
	if err := WritePattern(path, Pattern{Records: []RegionRecord{
		{Region: guest.Region{Start: 0, Pages: 4}, NrAccesses: 9},
		{Region: guest.Region{Start: 8, Pages: 4}, NrAccesses: 3},
	}}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// The record count sits right after the 16-byte header.
	const off = 16
	for _, n := range []int64{3, 1 << 20, 1 << 29, 1 << 30, -1} {
		hostile := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(hostile[off:], uint64(n))
		if err := os.WriteFile(path, hostile, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadPattern(path)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("count %d: reader allocated %d bytes", n, got)
		}
		if err == nil {
			t.Errorf("hostile record count %d accepted", n)
		}
	}
}

// TestReadersRejectHostileRecords: a negative page id, or unified page ids
// out of ascending order, must come back as ErrCorrupt instead of indexing
// the histogram out of range.
func TestReadersRejectHostileRecords(t *testing.T) {
	dir := t.TempDir()
	// file writes a header, a record count and the records.
	file := func(name string, magic uint64, recs ...[]int64) string {
		buf := binary.LittleEndian.AppendUint64(nil, magic)
		buf = binary.LittleEndian.AppendUint64(buf, fileVersion)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(recs)))
		for _, rec := range recs {
			for _, v := range rec {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for name, recs := range map[string][][]int64{
		"negative":   {{-1, 5}}, // the 40-byte file that used to panic
		"descending": {{7, 1}, {3, 1}},
		"duplicate":  {{3, 1}, {3, 1}},
	} {
		if _, err := ReadUnified(file(name, magicUnified, recs...)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("unified %s: err = %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := ReadUnified(file("ascending", magicUnified, []int64{0, 1}, []int64{9, 2})); err != nil {
		t.Errorf("ascending unified rejected: %v", err)
	}
	if _, err := ReadPattern(file("pattern", magicPattern, []int64{-4, 4, 1})); !errors.Is(err, ErrCorrupt) {
		t.Errorf("pattern with negative start: err = %v, want ErrCorrupt", err)
	}
}
