package microvm

import (
	"testing"

	"toss/internal/mem"
	"toss/internal/snapshot"
	"toss/internal/workload"
)

// benchTrace compiles a realistic Table I trace once for the replay benches.
func benchTrace(b *testing.B) (*Machine, func() *Machine) {
	b.Helper()
	spec := workload.ByNameMust("json_load_dump")
	layout, err := spec.Layout()
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	mk := func() *Machine {
		return NewResident(cfg, layout, mem.AllSlow(layout.TotalPages/2), 1)
	}
	return mk(), mk
}

// BenchmarkTraceReplay measures replaying one invocation on a resident
// machine with truth recording off — the Suite.execResident hot path that
// dominates bin profiling and every figure's measurement cells.
func BenchmarkTraceReplay(b *testing.B) {
	_, mk := benchTrace(b)
	spec := workload.ByNameMust("json_load_dump")
	tr, err := spec.Trace(workload.IV, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := mk()
		vm.SetRecordTruth(false)
		if _, err := vm.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceReplayTruth is the profiling-path variant: truth recording
// on, as every Step II invocation pays it.
func BenchmarkTraceReplayTruth(b *testing.B) {
	_, mk := benchTrace(b)
	spec := workload.ByNameMust("json_load_dump")
	tr, err := spec.Trace(workload.IV, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm := mk()
		if _, err := vm.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreRun measures a whole measured invocation: building the
// machine (which sets its residency and stored-page sets over the whole
// guest) and replaying a Table I trace on it, for the DRAM-resident, lazy
// snapshot and TOSS tiered restores.
func BenchmarkRestoreRun(b *testing.B) {
	spec := workload.ByNameMust("json_load_dump")
	layout, err := spec.Layout()
	if err != nil {
		b.Fatal(err)
	}
	tr, err := spec.Trace(workload.IV, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	boot := NewBooted(cfg, layout)
	if _, err := boot.Run(tr); err != nil {
		b.Fatal(err)
	}
	single, _ := boot.Snapshot(spec.Name)
	tiered := snapshot.BuildTiered(single, mem.AllSlow(layout.TotalPages/2))
	restores := []struct {
		name string
		mk   func() *Machine
	}{
		{"NewResident", func() *Machine { return NewResident(cfg, layout, mem.AllFast(), 1) }},
		{"RestoreLazy", func() *Machine { return RestoreLazy(cfg, layout, single, 1) }},
		{"RestoreTiered", func() *Machine { return RestoreTiered(cfg, layout, tiered, 1) }},
	}
	for _, r := range restores {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vm := r.mk()
				vm.SetRecordTruth(false)
				if _, err := vm.Run(tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
