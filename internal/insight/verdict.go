package insight

import (
	"fmt"
	"html"
	"io"
	"math"
	"sort"
	"strings"

	"toss/internal/xray"
)

// The regression sentinel: compare two runs' exported artifacts cell by
// cell and render a machine-checked verdict. `tossctl report` feeds it
// pairs of insight dumps, xray attribution dumps, and benchjson reports;
// every format is indexed into (cell, metric) -> value and compared by
// DiffCells, the one place that decides how two runs differ.

// noiseFloor is the absolute magnitude below which two values are treated
// as equal: sub-nano series values and empty counters flap at 100% relative
// change without it.
const noiseFloor = 1e-9

// VerdictRow is one compared (cell, metric) pair.
type VerdictRow struct {
	// Cell names the compared unit, e.g. "ext10/dram".
	Cell string
	// Metric names the compared number inside the cell, e.g.
	// "series latency_ms mean" or "alert-fires p99-inflation-burn".
	Metric string
	// Old / New are the two runs' values.
	Old, New float64
}

// Delta returns the relative change (new-old)/old; growth from a zero
// baseline reports as 1 (100%).
func (r VerdictRow) Delta() float64 {
	if r.Old == 0 {
		if r.New == 0 {
			return 0
		}
		return 1
	}
	return (r.New - r.Old) / r.Old
}

// Section is one compared artifact pair inside a verdict.
type Section struct {
	// Title labels the pair, normally "old-path -> new-path".
	Title string
	// Kind is the artifact format: "insight", "xray", or "bench".
	Kind string
	// Compared counts (cell, metric) pairs present in both documents.
	Compared int
	// Regressions grew past the threshold; Improvements shrank past it.
	// Both sorted by decreasing |delta|, ties by (cell, metric).
	Regressions  []VerdictRow
	Improvements []VerdictRow
	// OnlyOld / OnlyNew name cells present in one document only.
	OnlyOld, OnlyNew []string
}

// Verdict is the cross-run regression report: one section per compared
// artifact pair, judged at one relative-change threshold.
type Verdict struct {
	// Threshold is the relative change past which a cell regresses.
	Threshold float64
	// Sections are the compared pairs in input order.
	Sections []Section
}

// Regressed returns the total regression count across all sections.
func (v *Verdict) Regressed() int {
	n := 0
	for _, s := range v.Sections {
		n += len(s.Regressions)
	}
	return n
}

// Failed reports whether any section regressed — the `-fail` exit
// condition.
func (v *Verdict) Failed() bool { return v.Regressed() > 0 }

// sortRows orders by decreasing |delta|, ties by (cell, metric).
func sortRows(rows []VerdictRow) {
	sort.Slice(rows, func(i, j int) bool {
		di, dj := math.Abs(rows[i].Delta()), math.Abs(rows[j].Delta())
		if di != dj {
			return di > dj
		}
		if rows[i].Cell != rows[j].Cell {
			return rows[i].Cell < rows[j].Cell
		}
		return rows[i].Metric < rows[j].Metric
	})
}

// DiffCells compares two runs' (cell, metric) -> value indexes into one
// verdict section: the single cell-diff engine behind every artifact format
// `tossctl report` reads. When both runs have cells but share none, nothing
// was compared, and that is an error rather than a vacuous pass.
func DiffCells(title, kind string, old, new map[[2]string]float64, threshold float64) (Section, error) {
	sec := Section{Title: title, Kind: kind}
	for k, ov := range old {
		nv, ok := new[k]
		if !ok {
			sec.OnlyOld = append(sec.OnlyOld, k[0]+" / "+k[1])
			continue
		}
		sec.Compared++
		if math.Abs(ov) < noiseFloor && math.Abs(nv) < noiseFloor {
			continue
		}
		row := VerdictRow{Cell: k[0], Metric: k[1], Old: ov, New: nv}
		switch d := row.Delta(); {
		case d > threshold:
			sec.Regressions = append(sec.Regressions, row)
		case d < -threshold:
			sec.Improvements = append(sec.Improvements, row)
		}
	}
	if sec.Compared == 0 && len(old) > 0 && len(new) > 0 {
		return Section{}, fmt.Errorf("%s: %s runs share no (cell, metric) pair: %d old, %d new",
			title, kind, len(old), len(new))
	}
	for k := range new {
		if _, ok := old[k]; !ok {
			sec.OnlyNew = append(sec.OnlyNew, k[0]+" / "+k[1])
		}
	}
	sortRows(sec.Regressions)
	sortRows(sec.Improvements)
	sort.Strings(sec.OnlyOld)
	sort.Strings(sec.OnlyNew)
	return sec, nil
}

// indexDump flattens an insight dump into (cell, metric) -> value: each
// series contributes its mean, max, and last; each rule contributes its
// fire-edge count.
func indexDump(d Dump) map[[2]string]float64 {
	m := make(map[[2]string]float64)
	for _, c := range d.Cells {
		for _, s := range c.Series {
			m[[2]string{c.Cell, "series " + s.Name + " mean"}] = s.Mean
			m[[2]string{c.Cell, "series " + s.Name + " max"}] = s.Max
			m[[2]string{c.Cell, "series " + s.Name + " last"}] = s.Last
		}
		fires := make(map[string]float64)
		for _, a := range c.Alerts {
			if a.Firing {
				fires[a.Rule]++
			}
		}
		for rule, n := range fires {
			m[[2]string{c.Cell, "alert-fires " + rule}] = n
		}
	}
	return m
}

// DiffDumps compares two insight dumps cell by cell at the given relative
// threshold. Same-seed runs produce identical dumps and therefore an empty
// section.
func DiffDumps(title string, old, new Dump, threshold float64) (Section, error) {
	if old.Schema != new.Schema {
		return Section{}, fmt.Errorf("insight: schema mismatch: %d vs %d", old.Schema, new.Schema)
	}
	return DiffCells(title, "insight", indexDump(old), indexDump(new), threshold)
}

// indexRunDoc flattens an xray attribution dump into (cell, metric) -> mean
// attributed nanoseconds per record, which normalizes out record-count
// differences between runs. The cell is "experiment/label"; labels minted
// by the cluster simulator render as "experiment/fn@node [cell-tag]" so a
// regression names the swept fleet cell it lives in.
func indexRunDoc(doc xray.RunDoc) map[[2]string]float64 {
	m := make(map[[2]string]float64)
	for _, r := range doc.Reports {
		for _, fr := range r.Functions {
			if fr.Records <= 0 {
				continue
			}
			cell := r.Experiment + "/" + fr.Label
			if bare, tag, ok := xray.SplitClusterLabel(fr.Label); ok {
				cell = r.Experiment + "/" + bare
				if tag != "" {
					cell += " [" + tag + "]"
				}
			}
			for _, s := range fr.Segments {
				m[[2]string{cell, "segment " + s.ID + " ns/record"}] = float64(s.Total.Nanoseconds()) / float64(fr.Records)
			}
		}
	}
	return m
}

// DiffRunDocs compares two xray attribution dumps (`tossctl -xray`) cell by
// cell at the given relative threshold. Same-seed runs produce identical
// dumps and therefore an empty section.
func DiffRunDocs(title string, old, new xray.RunDoc, threshold float64) (Section, error) {
	if old.Schema != new.Schema {
		return Section{}, fmt.Errorf("xray: schema mismatch: %d vs %d", old.Schema, new.Schema)
	}
	return DiffCells(title, "xray", indexRunDoc(old), indexRunDoc(new), threshold)
}

// verdictLine is the one-line summary shared by both renderers.
func (v *Verdict) verdictLine() string {
	compared := 0
	for _, s := range v.Sections {
		compared += s.Compared
	}
	if v.Failed() {
		return fmt.Sprintf("FAIL — %d regression(s) across %d section(s) (%d cells compared)",
			v.Regressed(), len(v.Sections), compared)
	}
	return fmt.Sprintf("PASS — no regressions across %d section(s) (%d cells compared)",
		len(v.Sections), compared)
}

// WriteMarkdown renders the verdict as the markdown report `tossctl report`
// prints: one table per section, regressions first, then the PASS/FAIL
// line. Deterministic for a given verdict.
func (v *Verdict) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	b.WriteString("# toss run verdict\n\n")
	fmt.Fprintf(&b, "Threshold: %.1f%% relative change.\n", v.Threshold*100)
	for _, s := range v.Sections {
		fmt.Fprintf(&b, "\n## %s (%s)\n\n", s.Title, s.Kind)
		if len(s.Regressions)+len(s.Improvements) == 0 {
			fmt.Fprintf(&b, "No cells moved past the threshold (%d compared).\n", s.Compared)
		} else {
			b.WriteString("| status | cell | metric | old | new | delta |\n")
			b.WriteString("|---|---|---|---|---|---|\n")
			for _, r := range s.Regressions {
				fmt.Fprintf(&b, "| REGRESSED | %s | %s | %.4g | %.4g | %+.1f%% |\n",
					r.Cell, r.Metric, r.Old, r.New, r.Delta()*100)
			}
			for _, r := range s.Improvements {
				fmt.Fprintf(&b, "| improved | %s | %s | %.4g | %.4g | %+.1f%% |\n",
					r.Cell, r.Metric, r.Old, r.New, r.Delta()*100)
			}
			fmt.Fprintf(&b, "\n%d cells compared: %d regressed, %d improved.\n",
				s.Compared, len(s.Regressions), len(s.Improvements))
		}
		for _, c := range s.OnlyOld {
			fmt.Fprintf(&b, "- only-old: %s\n", c)
		}
		for _, c := range s.OnlyNew {
			fmt.Fprintf(&b, "- only-new: %s\n", c)
		}
	}
	fmt.Fprintf(&b, "\n## VERDICT: %s\n", v.verdictLine())
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteHTML renders the verdict as a self-contained HTML page (no scripts,
// dark theme — same conventions as the obs dashboard exporters).
func (v *Verdict) WriteHTML(w io.Writer) error {
	var b strings.Builder
	b.WriteString(`<!doctype html><html><head><meta charset="utf-8"><title>toss run verdict</title><style>
body{background:#111;color:#ddd;font-family:monospace;margin:2em}
h1,h2{color:#fff} table{border-collapse:collapse;margin:1em 0}
td,th{border:1px solid #444;padding:4px 10px;text-align:left}
.bad{color:#f66}.good{color:#6f6}.verdict{font-size:1.2em;font-weight:bold}
</style></head><body><h1>toss run verdict</h1>`)
	fmt.Fprintf(&b, `<p>Threshold: %.1f%% relative change.</p>`, v.Threshold*100)
	for _, s := range v.Sections {
		fmt.Fprintf(&b, `<h2>%s (%s)</h2>`, html.EscapeString(s.Title), html.EscapeString(s.Kind))
		if len(s.Regressions)+len(s.Improvements) == 0 {
			fmt.Fprintf(&b, `<p>No cells moved past the threshold (%d compared).</p>`, s.Compared)
		} else {
			b.WriteString(`<table><tr><th>status</th><th>cell</th><th>metric</th><th>old</th><th>new</th><th>delta</th></tr>`)
			row := func(class, status string, r VerdictRow) {
				fmt.Fprintf(&b, `<tr class=%q><td>%s</td><td>%s</td><td>%s</td><td>%.4g</td><td>%.4g</td><td>%+.1f%%</td></tr>`,
					class, status, html.EscapeString(r.Cell), html.EscapeString(r.Metric), r.Old, r.New, r.Delta()*100)
			}
			for _, r := range s.Regressions {
				row("bad", "REGRESSED", r)
			}
			for _, r := range s.Improvements {
				row("good", "improved", r)
			}
			b.WriteString(`</table>`)
		}
		for _, c := range s.OnlyOld {
			fmt.Fprintf(&b, `<p>only-old: %s</p>`, html.EscapeString(c))
		}
		for _, c := range s.OnlyNew {
			fmt.Fprintf(&b, `<p>only-new: %s</p>`, html.EscapeString(c))
		}
	}
	fmt.Fprintf(&b, `<p class="verdict">VERDICT: %s</p></body></html>`, html.EscapeString(v.verdictLine()))
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}
