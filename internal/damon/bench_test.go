package damon

import (
	"testing"

	"toss/internal/workload"
)

// BenchmarkProfile measures one DAMON profile of a Table I invocation:
// granulation of the ground-truth histogram, sampling noise, and region
// merging, as every profiling invocation of the core pipeline pays it.
func BenchmarkProfile(b *testing.B) {
	spec := workload.ByNameMust("json_load_dump")
	layout, err := spec.Layout()
	if err != nil {
		b.Fatal(err)
	}
	tr, err := spec.Trace(workload.IV, 1)
	if err != nil {
		b.Fatal(err)
	}
	truth := tr.Counts()
	c := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := c.Profile(truth, layout.TotalPages, int64(i)); len(p.Records) == 0 {
			b.Fatal("empty profile")
		}
	}
}
