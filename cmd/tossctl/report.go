package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"toss/internal/insight"
	"toss/internal/xray"
)

// runReport implements the cross-run regression sentinel:
//
//	tossctl report [-threshold F] [-fail] [-html out] old new [old2 new2 ...]
//
// Each (old, new) pair is one artifact comparison; the format of each file
// is auto-detected — insight dumps (tossctl -insight), attribution dumps
// (tossctl -xray), or benchmark reports (scripts/benchjson) — and both
// files of a pair must share it. The verdict prints as markdown on stdout
// naming every regressed (cell, metric) pair, -html additionally writes a
// self-contained page, and -fail turns any regression into exit status 1 —
// the shape CI consumes. Two same-seed runs produce byte-identical
// artifacts, so a clean pair always reports PASS.
func runReport(args []string) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.25, "relative change past which a cell regresses (0.25 = 25%)")
	fail := fs.Bool("fail", false, "exit 1 when any section regressed (default: report only)")
	htmlOut := fs.String("html", "", "also write the verdict as a self-contained HTML page to this `file`")
	fs.Usage = func() {
		fmt.Fprint(os.Stderr, "usage: tossctl report [-threshold F] [-fail] [-html out] old new [old2 new2 ...]\n\n"+
			"Compares pairs of run artifacts — insight dumps (tossctl -insight),\n"+
			"attribution dumps (tossctl -xray), or benchmark reports\n"+
			"(scripts/benchjson); formats auto-detected per pair — and prints a\n"+
			"markdown verdict naming each regressed (cell, metric) pair.\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 2 || fs.NArg()%2 != 0 {
		fs.Usage()
		return 2
	}
	verdict := &insight.Verdict{Threshold: *threshold}
	for i := 0; i < fs.NArg(); i += 2 {
		sec, err := reportSection(fs.Arg(i), fs.Arg(i+1), *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tossctl: report:", err)
			return 1
		}
		verdict.Sections = append(verdict.Sections, sec)
	}
	if err := verdict.WriteMarkdown(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tossctl: report:", err)
		return 1
	}
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tossctl: report:", err)
			return 1
		}
		err = verdict.WriteHTML(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tossctl: report:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "tossctl: wrote HTML verdict to %s\n", *htmlOut)
	}
	if *fail && verdict.Failed() {
		return 1
	}
	return 0
}

// reportSection compares one (old, new) artifact pair into a verdict
// section. Each file's format is sniffed on its own; a pair must share one.
func reportSection(oldPath, newPath string, threshold float64) (insight.Section, error) {
	oldArt, err := loadArtifactFile(oldPath)
	if err != nil {
		return insight.Section{}, err
	}
	newArt, err := loadArtifactFile(newPath)
	if err != nil {
		return insight.Section{}, err
	}
	return compareArtifacts(oldPath+" -> "+newPath, oldArt, newArt, threshold)
}

// artifact is one decoded run file. kind names its format — "insight",
// "xray", or "bench" — and selects which of the other fields is set.
type artifact struct {
	kind  string
	dump  insight.Dump
	doc   xray.RunDoc
	bench map[[2]string]float64
}

// docProbe sniffs which artifact a JSON file is: attribution dumps carry
// "experiments", benchjson reports carry "benchmarks", insight dumps
// (tossctl -insight) carry "cells".
type docProbe struct {
	Experiments []json.RawMessage `json:"experiments"`
	Benchmarks  []json.RawMessage `json:"benchmarks"`
	Cells       []json.RawMessage `json:"cells"`
}

// loadArtifactFile reads and decodes one run file, naming it in errors.
func loadArtifactFile(path string) (artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return artifact{}, err
	}
	a, err := loadArtifact(data)
	if err != nil {
		return artifact{}, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// loadArtifact sniffs the format of one run file and decodes it.
func loadArtifact(data []byte) (artifact, error) {
	var probe docProbe
	if err := json.Unmarshal(data, &probe); err != nil {
		return artifact{}, err
	}
	var a artifact
	var err error
	switch {
	case probe.Cells != nil && probe.Experiments == nil && probe.Benchmarks == nil:
		a.kind = "insight"
		a.dump, err = insight.ReadDump(bytes.NewReader(data))
	case probe.Experiments == nil && probe.Benchmarks != nil:
		a.kind = "bench"
		a.bench, err = indexBench(data)
	default:
		a.kind = "xray"
		a.doc, err = xray.ReadJSON(bytes.NewReader(data))
	}
	return a, err
}

// compareArtifacts hands a decoded pair to the verdict's diff engine.
func compareArtifacts(title string, old, new artifact, threshold float64) (insight.Section, error) {
	if old.kind != new.kind {
		return insight.Section{}, fmt.Errorf("%s: format mismatch: old is %s, new is %s", title, old.kind, new.kind)
	}
	switch old.kind {
	case "insight":
		return insight.DiffDumps(title, old.dump, new.dump, threshold)
	case "xray":
		return insight.DiffRunDocs(title, old.doc, new.doc, threshold)
	default:
		return insight.DiffCells(title, "bench", old.bench, new.bench, threshold)
	}
}

// indexBench reads a scripts/benchjson report into one ("pkg/Benchmark",
// "ns/op") cell per benchmark. The report's schema version is not checked,
// so reports written before benchjson stamped versions still compare.
func indexBench(data []byte) (map[[2]string]float64, error) {
	var doc struct {
		Benchmarks []struct {
			Name    string  `json:"name"`
			Package string  `json:"package"`
			NsPerOp float64 `json:"ns_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	names := make([]string, len(doc.Benchmarks))
	for i, b := range doc.Benchmarks {
		names[i] = b.Name
	}
	procs := procsSuffix(names)
	m := make(map[[2]string]float64, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		pkg := b.Package
		if pkg == "" {
			pkg = "bench"
		}
		m[[2]string{pkg + "/" + strings.TrimSuffix(b.Name, procs), "ns/op"}] = b.NsPerOp
	}
	return m, nil
}

// procsSuffix returns the "-N" suffix `go test` appends to every benchmark
// name when GOMAXPROCS is above 1, so reports taken at different widths
// compare. It returns "" unless every name ends in the same "-N", so a
// sub-benchmark such as "size-64" recorded at GOMAXPROCS=1 keeps its name.
func procsSuffix(names []string) string {
	if len(names) == 0 {
		return ""
	}
	i := strings.LastIndexByte(names[0], '-')
	if i < 0 || i == len(names[0])-1 || strings.Trim(names[0][i+1:], "0123456789") != "" {
		return ""
	}
	suffix := names[0][i:]
	for _, n := range names[1:] {
		if !strings.HasSuffix(n, suffix) {
			return ""
		}
	}
	return suffix
}
