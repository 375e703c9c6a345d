package main

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// canonicalSeed is the suite seed experiments_output.txt was generated
// with (experiments.NewSuite's BaseSeed). Snapshot builds always use it, so
// the fig5 and table2 rows are checked at every seed; the seed-dependent
// tables (ext10, ext11) only at this seed, at full scale.
const canonicalSeed = 1

// reference holds the rows of the reference tables, keyed by table id
// and then by the row's label cells (the first keyCells fields).
type reference struct {
	tables map[string]map[string][]string
}

// keyCells is how many leading cells label a row of each compared table.
var keyCells = map[string]int{"fig5": 1, "table2": 1, "ext10": 1, "ext11": 2}

// seedDependent marks the tables whose rows change with the workload seed.
var seedDependent = map[string]bool{"ext10": true, "ext11": true}

// parseReference reads the "=== id: title ===" sections of a rendered
// experiments output and keeps the rows of the tables the benchmark checks.
func parseReference(r io.Reader) (*reference, error) {
	ref := &reference{tables: map[string]map[string][]string{}}
	sc := bufio.NewScanner(r)
	var id string
	var line int
	for sc.Scan() {
		text := sc.Text()
		switch {
		case strings.HasPrefix(text, "=== "):
			id, line = "", 0
			head := strings.TrimPrefix(text, "=== ")
			if i := strings.Index(head, ":"); i > 0 {
				if _, ok := keyCells[head[:i]]; ok {
					id = head[:i]
					ref.tables[id] = map[string][]string{}
				}
			}
		case id == "" || text == "" || strings.HasPrefix(text, "note:"):
		default:
			line++
			if line <= 2 { // column header and rule
				continue
			}
			f := strings.Fields(text)
			k := keyCells[id]
			if len(f) <= k {
				return nil, fmt.Errorf("reference %s: short row %q", id, text)
			}
			ref.tables[id][strings.Join(f[:k], " ")] = f
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for id := range keyCells {
		if len(ref.tables[id]) == 0 {
			return nil, fmt.Errorf("reference: table %s missing", id)
		}
	}
	return ref, nil
}

// compare checks that the simulated row matches the reference row cell for
// cell. Rows that depend on the workload seed are checked only at the
// canonical seed and full scale.
func (b *bench) compare(id string, got ...string) {
	if b.ref == nil || (seedDependent[id] && (b.seed != canonicalSeed || b.scale != 1)) {
		return
	}
	k := keyCells[id]
	key := strings.Join(got[:k], " ")
	want, ok := b.ref.tables[id][key]
	b.check(ok, "%s: no reference row %q", id, key)
	if ok {
		b.check(strings.Join(want, " ") == strings.Join(got, " "), "%s row %q: got %v, reference %v", id, key, got, want)
	}
}
