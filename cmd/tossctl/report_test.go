package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"toss/internal/insight"
	"toss/internal/simtime"
	"toss/internal/xray"
)

// writeDump builds a two-cell insight dump whose p99 series is scaled by
// inflate and writes it to dir/name. inflate=1 is the healthy baseline.
func writeDump(t *testing.T, dir, name string, inflate float64) string {
	t.Helper()
	sink := insight.NewSink()
	for _, cell := range []string{"ext/dram", "ext/toss"} {
		eng := insight.NewEngine(insight.NewStore(insight.Config{}))
		base := 50.0
		if cell == "ext/toss" {
			base = 5.0
		}
		for i := 1; i <= 10; i++ {
			eng.Observe("p99_ms", simtime.Duration(i)*simtime.Second, base*inflate)
			eng.Observe("cold_pct", simtime.Duration(i)*simtime.Second, 0.5)
		}
		sink.Record(eng.Result(cell))
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := insight.WriteDumpJSON(f, sink.Dump()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureReport runs runReport with stdout captured.
func captureReport(t *testing.T, args ...string) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	code := runReport(args)
	os.Stdout = orig
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// TestReportSentinel is the regression sentinel's self-test: a clean
// baseline pair must pass, and a deliberately injected p99 regression must
// flip `tossctl report -fail` to a non-zero exit naming the regressed
// (cell, metric) pair. CI runs the same check end-to-end over real dumps.
func TestReportSentinel(t *testing.T) {
	dir := t.TempDir()
	baseline := writeDump(t, dir, "old.json", 1)
	clean := writeDump(t, dir, "new_clean.json", 1)
	bad := writeDump(t, dir, "new_bad.json", 2)

	code, out := captureReport(t, "-fail", baseline, clean)
	if code != 0 {
		t.Fatalf("clean pair: exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "VERDICT: PASS") {
		t.Fatalf("clean pair: missing PASS verdict:\n%s", out)
	}

	code, out = captureReport(t, "-fail", baseline, bad)
	if code != 1 {
		t.Fatalf("injected regression: exit %d, want 1\n%s", code, out)
	}
	for _, want := range []string{"VERDICT: FAIL", "REGRESSED", "ext/dram", "series p99_ms mean", "+100.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("injected regression: verdict missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "cold_pct") {
		t.Fatalf("injected regression: unchanged series flagged:\n%s", out)
	}

	// Without -fail the same regression still prints but reports success.
	code, out = captureReport(t, baseline, bad)
	if code != 0 {
		t.Fatalf("report without -fail: exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "VERDICT: FAIL") {
		t.Fatalf("report without -fail: missing FAIL verdict:\n%s", out)
	}
}

// TestReportHTML pins the -html artifact: self-contained, no scripts, and
// carrying the same verdict line as the markdown.
func TestReportHTML(t *testing.T) {
	dir := t.TempDir()
	baseline := writeDump(t, dir, "old.json", 1)
	bad := writeDump(t, dir, "new_bad.json", 2)
	htmlPath := filepath.Join(dir, "verdict.html")

	code, _ := captureReport(t, "-html", htmlPath, baseline, bad)
	if code != 0 {
		t.Fatalf("report -html: exit %d, want 0", code)
	}
	data, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	page := string(data)
	for _, want := range []string{"<!doctype html>", "VERDICT: FAIL", "ext/dram"} {
		if !strings.Contains(page, want) {
			t.Fatalf("HTML verdict missing %q", want)
		}
	}
	if strings.Contains(page, "<script") {
		t.Fatal("HTML verdict must not embed scripts")
	}
}

// TestReportUsageErrors pins the exit-2 argument contract: an odd number of
// files is not a valid pairing.
func TestReportUsageErrors(t *testing.T) {
	if code := runReport([]string{"only-one.json"}); code != 2 {
		t.Fatalf("odd file count: exit %d, want 2", code)
	}
	if code := runReport(nil); code != 2 {
		t.Fatalf("no files: exit %d, want 2", code)
	}
}

// writeXRay writes a one-experiment attribution dump with a cluster-tagged
// budget whose snapshot pull takes pull, plus a single-host budget.
func writeXRay(t *testing.T, dir, name string, pull simtime.Duration) string {
	t.Helper()
	b := xray.New("pyaes@n01/cluster/4n/affinity/flash/toss")
	b.Add(xray.SegSnapshotPull, pull)
	b.Add(xray.SegExecRun, 10*simtime.Millisecond)
	b.Seal(pull + 10*simtime.Millisecond)
	h := xray.New("compress")
	h.Add(xray.SegExecCPU, 5*simtime.Millisecond)
	h.Seal(5 * simtime.Millisecond)
	doc := xray.RunDoc{Schema: xray.SchemaVersion, Reports: []*xray.Report{xray.Aggregate("ext9", []*xray.Budget{b, h})}}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := xray.WriteJSON(f, doc); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReportXRayPair drives attribution dumps through the sentinel: a
// same-seed pair passes having compared every cell, and an injected
// snapshot-pull regression fails naming the swept cluster cell.
func TestReportXRayPair(t *testing.T) {
	dir := t.TempDir()
	baseline := writeXRay(t, dir, "old.json", 10*simtime.Millisecond)
	clean := writeXRay(t, dir, "new_clean.json", 10*simtime.Millisecond)
	bad := writeXRay(t, dir, "new_bad.json", 20*simtime.Millisecond)

	code, out := captureReport(t, "-fail", baseline, clean)
	if code != 0 || !strings.Contains(out, "VERDICT: PASS — no regressions across 1 section(s) (3 cells compared)") {
		t.Fatalf("clean xray pair: exit %d\n%s", code, out)
	}
	code, out = captureReport(t, "-fail", baseline, bad)
	if code != 1 {
		t.Fatalf("injected xray regression: exit %d, want 1\n%s", code, out)
	}
	want := "| REGRESSED | ext9/pyaes@n01 [4n/affinity/flash/toss] | segment snapshot.pull ns/record |"
	if !strings.Contains(out, want) || !strings.Contains(out, "(xray)") {
		t.Fatalf("injected xray regression: verdict missing %q:\n%s", want, out)
	}

	// An insight dump is not comparable with an attribution dump.
	if code, out := captureReport(t, writeDump(t, dir, "insight.json", 1), clean); code != 1 {
		t.Fatalf("mixed-format pair: exit %d, want 1\n%s", code, out)
	}
}

// procsName matches a benchmark name's trailing GOMAXPROCS suffix in a
// benchjson report.
var procsName = regexp.MustCompile(`("name":\s*"[^"]*)-[0-9]+"`)

// TestReportBenchPair compares the checked-in benchmark baseline with a
// copy renamed as if recorded at GOMAXPROCS=4: every benchmark must be
// compared.
// A pair sharing no benchmark at all is an error, not a pass.
func TestReportBenchPair(t *testing.T) {
	baseline := filepath.Join("..", "..", "BENCH_experiments.json")
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Benchmarks []json.RawMessage `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) == 0 {
		t.Fatal("baseline has no benchmarks")
	}
	dir := t.TempDir()
	wider := filepath.Join(dir, "wider.json")
	if err := os.WriteFile(wider, procsName.ReplaceAll(data, []byte(`${1}-4"`)), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := captureReport(t, "-fail", baseline, wider)
	want := fmt.Sprintf("(%d cells compared)", len(doc.Benchmarks))
	if code != 0 || !strings.Contains(out, want) || strings.Contains(out, "only-") {
		t.Fatalf("renamed bench pair: exit %d, want 0 and %q\n%s", code, want, out)
	}

	disjoint := filepath.Join(dir, "disjoint.json")
	if err := os.WriteFile(disjoint, []byte(`{"benchmarks":[{"name":"BenchmarkElsewhere-4","ns_per_op":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := captureReport(t, baseline, disjoint); code != 1 || strings.Contains(out, "PASS") {
		t.Fatalf("disjoint bench pair: exit %d, want 1 without a verdict\n%s", code, out)
	}
}

func TestProcsSuffix(t *testing.T) {
	cases := []struct {
		names []string
		want  string
	}{
		{[]string{"BenchmarkA-2", "BenchmarkB/x-2"}, "-2"},
		{[]string{"BenchmarkA-16", "BenchmarkB-16"}, "-16"},
		// GOMAXPROCS=1 appends nothing; sub-benchmark sizes survive.
		{[]string{"BenchmarkA/size-64", "BenchmarkA/size-128"}, ""},
		{[]string{"BenchmarkA/size-64", "BenchmarkB"}, ""},
		{[]string{"BenchmarkA-x"}, ""},
		{[]string{"BenchmarkA-"}, ""},
		{nil, ""},
	}
	for _, c := range cases {
		if got := procsSuffix(c.names); got != c.want {
			t.Errorf("procsSuffix(%q) = %q, want %q", c.names, got, c.want)
		}
	}
}

// FuzzReportArtifact feeds arbitrary bytes through report's format
// sniffing and loading. Whatever decodes must compare clean against
// itself and render; nothing may panic. Seeds live in testdata/fuzz.
func FuzzReportArtifact(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := loadArtifact(data)
		if err != nil {
			return
		}
		sec, err := compareArtifacts("self", a, a, 0.25)
		if err != nil {
			t.Fatalf("%s artifact does not compare with itself: %v", a.kind, err)
		}
		if len(sec.Regressions)+len(sec.Improvements)+len(sec.OnlyOld)+len(sec.OnlyNew) != 0 {
			t.Fatalf("%s artifact differs from itself: %+v", a.kind, sec)
		}
		v := &insight.Verdict{Threshold: 0.25, Sections: []insight.Section{sec}}
		if err := v.WriteMarkdown(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}
