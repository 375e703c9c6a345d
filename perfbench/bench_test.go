package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"

	"toss/internal/par"
	"toss/internal/simtime"
	"toss/internal/workload"
)

// tinyScale shrinks every workload to a few seconds for the self-test. The
// snapshot builds stay full size (they are canonical), so the fig5 and
// table2 rows are still checked against the reference.
const tinyScale = 0.02

func loadReference(t *testing.T) *reference {
	t.Helper()
	f, err := os.Open("../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ref, err := parseReference(f)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func tinyBench(t *testing.T, seed int64, ref *reference) *bench {
	return &bench{seed: seed, scale: tinyScale, workers: 2, pool: par.New(2), ref: ref, dir: t.TempDir()}
}

func workloadByName(t *testing.T, name string) workloadDef {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workloadDef{}
}

// passTwice prepares a workload and runs two passes, which must agree.
func passTwice(t *testing.T, def workloadDef, b *bench) (runner, outcome) {
	t.Helper()
	r, err := def.setup(b, nil)
	if err != nil {
		t.Fatalf("%s setup: %v", def.name, err)
	}
	o1, _, err := measure(r, nil)
	if err != nil {
		t.Fatalf("%s pass: %v", def.name, err)
	}
	o2, _, err := measure(r, newTracer())
	if err != nil {
		t.Fatalf("%s traced pass: %v", def.name, err)
	}
	if o1.digest != o2.digest {
		t.Errorf("%s: same seed, digests %#x and %#x", def.name, o1.digest, o2.digest)
	}
	return r, o1
}

func TestWorkloadsRepeatAndPassTheirChecks(t *testing.T) {
	ref := loadReference(t)
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			b := tinyBench(t, canonicalSeed, ref)
			_, o := passTwice(t, def, b)
			if b.failed.Load() != 0 || b.errorRate() != 0 {
				t.Fatalf("%d of %d operations failed: %v", b.failed.Load(), b.attempted.Load(), b.problems)
			}
			// A fresh set-up reproduces the outcome.
			b2 := tinyBench(t, canonicalSeed, ref)
			if _, o2 := passTwice(t, def, b2); o2.digest != o.digest {
				t.Errorf("fresh set-up: digest %#x, want %#x", o2.digest, o.digest)
			}
		})
	}
}

func TestSeedChangesFleetArrivals(t *testing.T) {
	def := workloadByName(t, "fleet_day")
	r1, _ := passTwice(t, def, tinyBench(t, 1, nil))
	r2, _ := passTwice(t, def, tinyBench(t, 2, nil))
	a1, a2 := r1.(*fleetRunner).arrivalDigest, r2.(*fleetRunner).arrivalDigest
	if a1 == 0 || a1 == a2 {
		t.Errorf("arrival digests %#x (seed 1) and %#x (seed 2) should differ", a1, a2)
	}
}

func TestDayStreamDrawsExactlyN(t *testing.T) {
	cfg := workload.ArrivalsConfig{
		Process:     workload.ProcDiurnalFlash,
		Horizon:     600 * simtime.Second,
		MeanIAT:     100 * simtime.Millisecond,
		Functions:   fleetFuncs,
		Seed:        7,
		FlashFactor: 4,
	}
	day, err := workload.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var whole []workload.ArrivalSpec
	for a, ok := day.Next(); ok; a, ok = day.Next() {
		whole = append(whole, a)
	}
	for _, n := range []int{len(whole) - 50, len(whole), len(whole) + 50} {
		d, err := newDayStream(cfg, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		var got []workload.ArrivalSpec
		for a, ok := d.Next(); ok; a, ok = d.Next() {
			got = append(got, a)
		}
		if d.err != nil || len(got) != n {
			t.Fatalf("n=%d: drew %d arrivals (err %v)", n, len(got), d.err)
		}
		for i, a := range got {
			if i < len(whole) && a != whole[i] {
				t.Fatalf("n=%d: arrival %d is %+v, the day's is %+v", n, i, a, whole[i])
			}
			if i >= len(whole) && (a.At < cfg.Horizon || a.At < got[i-1].At) {
				t.Fatalf("n=%d: arrival %d of the next day at %v, after %v", n, i, a.At, got[i-1].At)
			}
		}
	}
}

func TestPerturbedReferenceTripsErrorRate(t *testing.T) {
	ref := loadReference(t)
	row := ref.tables["fig5"]["pagerank"]
	if len(row) < 2 {
		t.Fatalf("reference fig5 row for pagerank: %v", row)
	}
	perturbed := append([]string(nil), row...)
	perturbed[1] = "0.999"
	ref.tables["fig5"]["pagerank"] = perturbed

	b := tinyBench(t, canonicalSeed, ref)
	passTwice(t, workloadByName(t, "paper_pipeline"), b)
	if b.failed.Load() == 0 || b.errorRate() <= 0 {
		t.Fatalf("perturbed reference row passed: %d failed of %d", b.failed.Load(), b.attempted.Load())
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness's
// workload and metric tables in step, and checks that a traced run emits
// every per-layer metric.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", got, want)
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	harness := map[string]string{}
	for _, m := range endToEnd {
		harness[m.name] = m.unit
	}
	if !sameUnits(e2e, harness) {
		t.Errorf("end_to_end %v, harness %v", e2e, harness)
	}
	layers := map[string]string{}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	if !sameUnits(layers, layerUnits()) {
		t.Errorf("per_layer %v, harness %v", layers, layerUnits())
	}

	res, _, err := run(config{workload: "observed_replay", seed: 3, traced: true, scale: tinyScale, out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 {
		t.Errorf("traced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for name, unit := range layers {
		if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
			t.Errorf("traced run metric %s = %+v, want unit %s", name, m, unit)
		}
	}
}

func sameUnits(a, b map[string]string) bool {
	if !slices.Equal(sortedKeys(a), sortedKeys(b)) {
		return false
	}
	for k, u := range a {
		if b[k] != u {
			return false
		}
	}
	return true
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
