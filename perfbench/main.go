// Command perfbench is the repository's benchmark: it drives one workload
// through the simulator's layers, times every call at the layer boundary
// from outside, checks every simulated result, and prints one JSON result
// line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced run, and the spans
// are written under --out. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"toss/internal/par"
)

var workloads = []workloadDef{
	{name: "paper_pipeline", setup: setupPaper},
	// Two fleets in parallel contend for memory bandwidth; run serially,
	// the day's host time repeats twice as closely.
	{name: "fleet_day", setup: setupFleet, serial: true},
	{name: "tier_drift", setup: setupDrift},
	// The attached observers force the platform serial, as faasim does.
	{name: "observed_replay", setup: setupReplay, serial: true},
}

// setupReps is how many times a run prepares its workload; setup_s is the
// median.
const setupReps = 5

// minPasses is the fewest timed passes a run makes, however short
// --seconds is.
const minPasses = 3

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	scale    float64
	// reference is the rendered experiments output the canonical seed is
	// checked against.
	reference string
	out       string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traced int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", canonicalSeed, "workload seed (the reference tables were generated at 1)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "host seconds of timed passes")
	flag.IntVar(&traced, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.reference, "reference", "experiments_output.txt", "rendered experiment tables to check the canonical seed against")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and span dumps")
	flag.Parse()
	if traced != 0 && traced != 1 {
		fail("--trace must be 0 or 1")
	}
	cfg.traced, cfg.scale = traced == 1, 1

	res, env, err := run(cfg)
	if err != nil {
		fail("%v", err)
	}
	line, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(line))
	if line, err = json.Marshal(res); err != nil {
		fail("%v", err)
	}
	fmt.Println(string(line))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// run executes one benchmark run: set-up repetitions, a warm-up pass, then
// timed passes for cfg.seconds (alternating with traced passes when
// cfg.traced).
func run(cfg config) (result, map[string]any, error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return result{}, nil, fmt.Errorf("unknown workload %q (known: %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	b := &bench{seed: cfg.seed, scale: cfg.scale, workers: runtime.GOMAXPROCS(0)}
	if def.serial {
		b.workers = 1
	}
	b.pool = par.New(b.workers)
	if cfg.reference != "" {
		f, err := os.Open(cfg.reference)
		if err != nil {
			return result{}, nil, fmt.Errorf("reference tables: %w", err)
		}
		b.ref, err = parseReference(f)
		f.Close()
		if err != nil {
			return result{}, nil, err
		}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return result{}, nil, err
	}
	dir, err := os.MkdirTemp(cfg.out, "scratch-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(dir)
	b.dir = dir
	env := environment(cfg, b.workers)

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}

	// Set up several times and keep the last runner; only the last
	// repetition is traced.
	var r runner
	var setups []float64
	for i := 0; i < setupReps; i++ {
		var t *tracer
		if i == setupReps-1 {
			t = tr
		}
		runtime.GC()
		t0 := time.Now()
		if r, err = def.setup(b, t); err != nil {
			return result{}, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupEnd := 0
	if tr != nil {
		setupEnd = tr.mark()
	}

	// The warm-up pass fills the program's caches and fixes the digest every
	// later pass must reproduce.
	first, _, err := measure(r, nil)
	if err != nil {
		return result{}, nil, err
	}
	var plain, traced []passStats
	var tracedSpans [][2]int
	// A pass starts only if one more, as long as the last, ends by the
	// deadline, so a run measures for at most --seconds past its minimum
	// passes.
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var last time.Duration
	for len(plain) < minPasses || (cfg.traced && len(traced) < minPasses) || time.Now().Add(last).Before(deadline) {
		t0 := time.Now()
		out, st, err := measure(r, nil)
		if err != nil {
			return result{}, nil, err
		}
		b.check(out.digest == first.digest, "%s: pass digest %#x differs from the first pass's %#x", cfg.workload, out.digest, first.digest)
		plain = append(plain, st)
		if cfg.traced {
			from := tr.mark()
			out, st, err := measure(r, tr)
			if err != nil {
				return result{}, nil, err
			}
			b.check(out.digest == first.digest, "%s: traced pass digest %#x differs from the first pass's %#x", cfg.workload, out.digest, first.digest)
			traced = append(traced, st)
			tracedSpans = append(tracedSpans, [2]int{from, tr.mark()})
		}
		last = time.Since(t0)
	}

	walls := make([]string, len(plain))
	for i, p := range plain {
		walls[i] = fmt.Sprintf("%.3f/%.3f/%d", p.wall.Seconds(), p.cpu.Seconds(), p.gcCycles)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d timed passes, wall s/cpu s/GC cycles: %s\n", len(plain), strings.Join(walls, " "))

	res := result{Attempted: b.attempted.Load(), Failed: min(b.failed.Load(), b.attempted.Load())}
	res.Correct = res.Failed == 0
	for _, p := range b.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	if cfg.traced {
		res.Metrics = layerMetrics(b, first, tr, setupEnd, tracedSpans, plain, traced)
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path, map[string]any{"env": env}); err != nil {
			return result{}, nil, err
		}
	} else {
		res.Metrics = endToEndMetrics(b, first, setups, plain)
	}
	return res, env, nil
}

// endToEnd lists the end-to-end metrics and their units.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"sim_inv_per_s", "1/s"},
	{"alloc_mb", "MiB"},
	{"peak_rss_mb", "MiB"},
	{"success_rate", "ratio"},
	{"sim_p99_ms", "ms"},
	{"sim_mem_cost", "ratio"},
}

func endToEndMetrics(b *bench, o outcome, setups []float64, passes []passStats) map[string]metric {
	var wall, cpu, alloc, peak []float64
	for _, p := range passes {
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		alloc = append(alloc, float64(p.allocB)/(1<<20))
		peak = append(peak, float64(p.peakB)/(1<<20))
	}
	v := map[string]float64{
		"wall_s":        median(wall),
		"cpu_s":         median(cpu),
		"setup_s":       median(setups),
		"sim_inv_per_s": float64(o.simInv) / median(wall),
		"alloc_mb":      median(alloc),
		"peak_rss_mb":   median(peak),
		"success_rate":  1 - b.errorRate(),
		"sim_p99_ms":    o.p99Ms,
		"sim_mem_cost":  o.memCost,
	}
	m := map[string]metric{}
	for _, e := range endToEnd {
		m[e.name] = metric{v[e.name], e.unit}
	}
	return m
}

// environment is the machine and build record stamped on every result.
func environment(cfg config, workers int) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"traced":     cfg.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    workers,
		"go":         runtime.Version(),
		"cpu":        cpu,
		"commit":     gitCommit(),
	}
}

// gitCommit reads HEAD from a .git directory in the working directory
// without running git; "unknown" in a checkout that is not a repository.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, l := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(l, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown"
}
