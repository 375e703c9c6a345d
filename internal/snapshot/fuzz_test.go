package snapshot

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"toss/internal/guest"
	"toss/internal/mem"
)

// TestReadersNeverPanicOnMutatedFiles writes valid artifacts, then applies
// hundreds of random byte mutations and truncations; every reader must
// return an error or a value — never panic, never hang.
func TestReadersNeverPanicOnMutatedFiles(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(99))

	singlePath := filepath.Join(dir, "single.toss")
	s := &Single{
		Function: "fuzz",
		Memory: NewMemory("fuzz", 256, []guest.Region{
			{Start: 0, Pages: 30}, {Start: 100, Pages: 10},
		}),
		VMStateBytes: 4096,
	}
	if err := WriteSingle(singlePath, s); err != nil {
		t.Fatal(err)
	}
	tieredDir := filepath.Join(dir, "tiered")
	if err := os.MkdirAll(tieredDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ts := BuildTiered(s, mem.NewPlacement([]guest.Region{{Start: 5, Pages: 50}}))
	if err := WriteTiered(tieredDir, ts); err != nil {
		t.Fatal(err)
	}
	wsPath := filepath.Join(dir, "ws.toss")
	if err := WriteWorkingSet(wsPath, []guest.Region{{Start: 0, Pages: 30}}); err != nil {
		t.Fatal(err)
	}

	originals := map[string][]byte{}
	for _, p := range []string{singlePath, wsPath, PathsIn(tieredDir).Layout,
		PathsIn(tieredDir).Fast, PathsIn(tieredDir).Slow} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		originals[p] = data
	}

	mutate := func(data []byte) []byte {
		out := append([]byte(nil), data...)
		switch rng.Intn(3) {
		case 0: // flip random bytes
			for i := 0; i < 1+rng.Intn(8); i++ {
				out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
			}
		case 1: // truncate
			out = out[:rng.Intn(len(out))]
		case 2: // append junk
			junk := make([]byte, 1+rng.Intn(64))
			rng.Read(junk)
			out = append(out, junk...)
		}
		return out
	}

	// Map order is random; mutate the files in a fixed order so one seed
	// always means the same mutations.
	paths := make([]string, 0, len(originals))
	for p := range originals {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for round := 0; round < 300; round++ {
		for _, path := range paths {
			if err := os.WriteFile(path, mutate(originals[path]), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// Readers may error; they must not panic (a panic fails the test).
		_, _ = ReadSingle(singlePath)
		_, _ = ReadWorkingSet(wsPath)
		_, _ = ReadTiered(tieredDir)
	}
}

// TestReadSingleBoundsHostileCounts ensures length fields cannot trigger
// huge allocations: a file claiming 2^40 pages must be rejected cheaply.
func TestReadSingleBoundsHostileCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hostile.toss")
	s := &Single{Function: "x", Memory: NewMemory("x", 64, []guest.Region{{Start: 0, Pages: 4}})}
	if err := WriteSingle(path, s); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// The page count sits after header(16) + fnlen(8) + fn(1) +
	// vmstate(8) + guestPages(8); overwrite it with a huge value.
	off := 16 + 8 + 1 + 8 + 8
	for i := 0; i < 8; i++ {
		data[off+i] = 0xff
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSingle(path); err == nil {
		t.Error("hostile page count accepted")
	}
}

// allocatedBy returns the bytes the Go heap handed out while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadWorkingSetBoundsHostileCounts rewrites the region count of a
// valid working-set file: every count the file cannot hold — including
// ones far below the old 1<<30 plausibility cap — must be rejected without
// allocating for it.
func TestReadWorkingSetBoundsHostileCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ws.toss")
	if err := WriteWorkingSet(path, []guest.Region{{Start: 0, Pages: 4}, {Start: 10, Pages: 2}}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// The region count sits right after the 16-byte header.
	const off = 16
	for _, n := range []int64{3, 1 << 20, 1 << 29, 1 << 30, -1} {
		hostile := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(hostile[off:], uint64(n))
		if err := os.WriteFile(path, hostile, 0o644); err != nil {
			t.Fatal(err)
		}
		var err error
		if got := allocatedBy(func() { _, err = ReadWorkingSet(path) }); got > 1<<20 {
			t.Errorf("count %d: reader allocated %d bytes", n, got)
		}
		if err == nil {
			t.Errorf("hostile region count %d accepted", n)
		}
	}
}
