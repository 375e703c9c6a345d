package xray_test

// The attribution dump's comparison contract, checked through the one run
// comparator (insight's verdict engine, behind `tossctl report`).

import (
	"bytes"
	"strings"
	"testing"

	"toss/internal/insight"
	"toss/internal/simtime"
	"toss/internal/xray"
)

// sampleRunDoc is a one-experiment attribution dump: two alpha records
// and one beta record.
func sampleRunDoc() xray.RunDoc {
	a1 := xray.New("alpha")
	a1.Add(xray.SegBootKernel, 40*simtime.Millisecond)
	a1.Add(xray.SegExecCPU, 10*simtime.Millisecond)
	a1.Seal(50 * simtime.Millisecond)
	a2 := xray.New("alpha")
	a2.Add(xray.SegRestoreVMLoad, 4*simtime.Millisecond)
	a2.Add(xray.SegExecCPU, 11*simtime.Millisecond)
	a2.Seal(15 * simtime.Millisecond)
	b1 := xray.New("beta")
	b1.Add(xray.SegExecCPU, 5*simtime.Millisecond)
	b1.Add(xray.SegExecMemSlow, 20*simtime.Millisecond)
	b1.Seal(25 * simtime.Millisecond)
	rep := xray.Aggregate("fig2", []*xray.Budget{a1, a2, b1})
	return xray.RunDoc{Schema: xray.SchemaVersion, Reports: []*xray.Report{rep}}
}

// scaleSegment multiplies one segment of one label's aggregate by num/den.
func scaleSegment(t *testing.T, doc xray.RunDoc, label, seg string, num, den simtime.Duration) {
	t.Helper()
	for _, r := range doc.Reports {
		for fi := range r.Functions {
			if r.Functions[fi].Label != label {
				continue
			}
			for si := range r.Functions[fi].Segments {
				if s := &r.Functions[fi].Segments[si]; s.ID == seg {
					s.Total = s.Total * num / den
					return
				}
			}
		}
	}
	t.Fatalf("no segment %s under label %q", seg, label)
}

func TestDiffIdenticalDocsZeroRegressions(t *testing.T) {
	// Diffing two same-seed runs reports nothing, yet compares every cell.
	doc := sampleRunDoc()
	sec, err := insight.DiffRunDocs("self", doc, doc, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.Regressions) != 0 || len(sec.Improvements) != 0 ||
		len(sec.OnlyOld) != 0 || len(sec.OnlyNew) != 0 {
		t.Fatalf("identical docs must diff clean: %+v", sec)
	}
	if sec.Compared != 5 || sec.Kind != "xray" {
		t.Fatalf("want 5 xray cells compared, got %d (%s)", sec.Compared, sec.Kind)
	}
}

func TestDiffDetectsRegression(t *testing.T) {
	oldDoc, newDoc := sampleRunDoc(), sampleRunDoc()
	scaleSegment(t, newDoc, "beta", xray.SegExecMemSlow, 3, 2)
	sec, err := insight.DiffRunDocs("old -> new", oldDoc, newDoc, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.Regressions) != 1 {
		t.Fatalf("want exactly one regression, got %+v", sec.Regressions)
	}
	r := sec.Regressions[0]
	if r.Cell != "fig2/beta" || r.Metric != "segment "+xray.SegExecMemSlow+" ns/record" {
		t.Fatalf("regression names the wrong cell: %+v", r)
	}
	if d := r.Delta(); d < 0.49 || d > 0.51 {
		t.Fatalf("delta: want ~0.5, got %v", d)
	}
	var md bytes.Buffer
	v := &insight.Verdict{Threshold: 0.25, Sections: []insight.Section{sec}}
	if err := v.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "| REGRESSED | fig2/beta | segment exec.mem.slow ns/record | 2e+07 | 3e+07 | +50.0% |") {
		t.Fatalf("markdown must name the cell:\n%s", md.String())
	}
}

func TestDiffDetectsImprovementAndOnlyCells(t *testing.T) {
	oldDoc, newDoc := sampleRunDoc(), sampleRunDoc()
	scaleSegment(t, newDoc, "beta", xray.SegExecMemSlow, 1, 2)
	// A cell only the new doc has.
	for fi := range newDoc.Reports[0].Functions {
		if fr := &newDoc.Reports[0].Functions[fi]; fr.Label == "beta" {
			fr.Segments = append(fr.Segments, xray.SegmentStat{ID: "exec.novel", Total: 1, Count: 1})
		}
	}
	sec, err := insight.DiffRunDocs("old -> new", oldDoc, newDoc, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.Improvements) != 1 || sec.Improvements[0].Metric != "segment exec.mem.slow ns/record" {
		t.Fatalf("improvements: %+v", sec.Improvements)
	}
	if len(sec.OnlyNew) != 1 || sec.OnlyNew[0] != "fig2/beta / segment exec.novel ns/record" {
		t.Fatalf("only-new: %v", sec.OnlyNew)
	}
	// Swap directions: old has the extra cell.
	sec, err = insight.DiffRunDocs("new -> old", newDoc, oldDoc, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.OnlyOld) != 1 || sec.OnlyOld[0] != "fig2/beta / segment exec.novel ns/record" {
		t.Fatalf("only-old: %v", sec.OnlyOld)
	}
}

func TestDiffSchemaMismatch(t *testing.T) {
	oldDoc, newDoc := sampleRunDoc(), sampleRunDoc()
	newDoc.Schema = xray.SchemaVersion + 1
	if _, err := insight.DiffRunDocs("t", oldDoc, newDoc, 0.25); err == nil {
		t.Fatal("schema mismatch must error")
	}
}

func TestDiffZeroBaselineDelta(t *testing.T) {
	if d := (insight.VerdictRow{Old: 0, New: 5}).Delta(); d != 1 {
		t.Fatalf("growth from zero baseline: want 1, got %v", d)
	}
	if d := (insight.VerdictRow{Old: 0, New: 0}).Delta(); d != 0 {
		t.Fatalf("zero-to-zero: want 0, got %v", d)
	}
	sec, err := insight.DiffCells("t", "bench",
		map[[2]string]float64{{"c", "m"}: 0},
		map[[2]string]float64{{"c", "m"}: 5}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.Regressions) != 1 || sec.Regressions[0].Delta() != 1 {
		t.Fatalf("growth from zero must regress at 100%%: %+v", sec)
	}
}

// TestDiffNamesClusterCells pins the fleet sweep's naming: a
// regression inside a cluster-tagged budget names the swept cell — node
// count, policy, arrival, mechanism — apart from the invocation label.
func TestDiffNamesClusterCells(t *testing.T) {
	mk := func(pull simtime.Duration) xray.RunDoc {
		b := xray.New("pyaes@n01/cluster/4n/affinity/flash/toss")
		b.Add(xray.SegSnapshotPull, pull)
		b.Add(xray.SegExecRun, 10*simtime.Millisecond)
		b.Seal(pull + 10*simtime.Millisecond)
		u := xray.New("compress@n02/cluster")
		u.Add(xray.SegExecRun, 5*simtime.Millisecond)
		u.Seal(5 * simtime.Millisecond)
		rep := xray.Aggregate("ext9", []*xray.Budget{b, u})
		return xray.RunDoc{Schema: xray.SchemaVersion, Reports: []*xray.Report{rep}}
	}
	sec, err := insight.DiffRunDocs("t", mk(10*simtime.Millisecond), mk(20*simtime.Millisecond), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.Regressions) != 1 {
		t.Fatalf("want exactly one regression, got %+v", sec.Regressions)
	}
	r := sec.Regressions[0]
	if r.Cell != "ext9/pyaes@n01 [4n/affinity/flash/toss]" || r.Metric != "segment snapshot.pull ns/record" {
		t.Fatalf("regression must name the cluster cell: %+v", r)
	}
	if sec.Compared != 3 {
		t.Fatalf("want 3 cells compared (untagged cluster cell included), got %d", sec.Compared)
	}
}
