package damon

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// maxFuzzPage bounds the page ids a FuzzReadUnified input may name.
// ReadUnified still sizes its dense histogram by the largest page id it
// reads, so one mutated id could demand gigabytes; bounding ids needs a
// file-format change (ROADMAP item 1).
const maxFuzzPage = 1 << 20

// decodeFile writes data to a fresh file and decodes it with read. A
// decode failure must be ErrCorrupt.
func decodeFile[T any](t *testing.T, data []byte, read func(string) (T, error)) (T, bool) {
	path := filepath.Join(t.TempDir(), "in")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := read(path)
	if err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode error is not ErrCorrupt: %v", err)
	}
	return v, err == nil
}

// FuzzReadUnified feeds arbitrary bytes to ReadUnified: nothing may panic,
// and whatever decodes must survive a WriteUnified/ReadUnified round trip.
// Seeds live in testdata/fuzz.
func FuzzReadUnified(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// Records start after the 16-byte header and the 8-byte count.
		for off := 24; off+16 <= len(data); off += 16 {
			if int64(binary.LittleEndian.Uint64(data[off:])) > maxFuzzPage {
				t.Skip("page id beyond maxFuzzPage")
			}
		}
		u, ok := decodeFile(t, data, ReadUnified)
		if !ok {
			return
		}
		path := filepath.Join(t.TempDir(), "out")
		if err := WriteUnified(path, u); err != nil {
			t.Fatal(err)
		}
		back, err := ReadUnified(path)
		if err != nil {
			t.Fatalf("re-read of a written unified file: %v", err)
		}
		if !back.Histogram().Equal(u.Histogram()) {
			t.Fatal("unified round trip changed the histogram")
		}
	})
}

// FuzzReadPattern feeds arbitrary bytes to ReadPattern: nothing may panic,
// and whatever decodes must survive a WritePattern/ReadPattern round trip.
// Seeds live in testdata/fuzz.
func FuzzReadPattern(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := decodeFile(t, data, ReadPattern)
		if !ok {
			return
		}
		path := filepath.Join(t.TempDir(), "out")
		if err := WritePattern(path, p); err != nil {
			t.Fatal(err)
		}
		back, err := ReadPattern(path)
		if err != nil {
			t.Fatalf("re-read of a written pattern file: %v", err)
		}
		if !slices.Equal(back.Records, p.Records) {
			t.Fatalf("pattern round trip: %v, want %v", back.Records, p.Records)
		}
	})
}
