package main

import (
	"time"

	"toss/internal/stats"
)

// layerTimes maps each per-layer time metric to the spans whose self time
// it sums. Time inside a call belongs to the called layer, children
// included, unless the harness recorded a child span for it (the arrivals
// the cluster event loop pulls from the workload stream).
var layerTimes = []struct {
	metric string
	spans  []string
}{
	{"workload.trace_s", []string{"workload.Trace", "workload.Layout"}},
	{"workload.stream_s", []string{"workload.NewStream", "workload.Stream.Next"}},
	{"core.profile_s", []string{"core.NewProfileData", "core.ProfileInvocation", "core.HeatRegions"}},
	{"core.analyze_s", []string{"core.Analyze"}},
	{"core.build_s", []string{"core.BuildSnapshot"}},
	{"snapshot.write_s", []string{"snapshot.WriteTiered"}},
	{"snapshot.read_s", []string{"snapshot.ReadTiered", "snapshot.SeedPlacement"}},
	{"microvm.restore_s", []string{"microvm.RestoreTiered", "microvm.NewResident"}},
	{"microvm.run_s", []string{"microvm.Run"}},
	{"reap.invoke_s", []string{"reap.NewManager", "reap.Invoke"}},
	{"cluster.profile_s", []string{"cluster.Profile"}},
	{"cluster.run_s", []string{"cluster.New", "cluster.RunStream", "cluster.Records.Completions"}},
	{"insight.observe_s", []string{"insight.Engine.Observe"}},
	{"migrate.tick_s", []string{"migrate.Tick"}},
	{"migrate.waitfor_s", []string{"migrate.WaitFor"}},
	{"migrate.touch_s", []string{"migrate.New", "migrate.SetLevel", "migrate.Touch", "migrate.TouchExtent"}},
	{"mem.charge_s", []string{"mem.ChargePages"}},
	{"platform.replay_s", []string{"platform.New", "platform.Replay"}},
	{"telemetry.export_s", []string{"telemetry.WriteChromeTrace"}},
	{"xray.report_s", []string{"xray.Report"}},
	{"obs.export_s", []string{"obs.Export"}},
}

// layerCalls maps per-layer call-count metrics to their spans.
var layerCalls = []struct {
	metric string
	spans  []string
}{
	{"workload.traces", []string{"workload.Trace"}},
	{"core.profile_invocations", []string{"core.NewProfileData", "core.ProfileInvocation"}},
	{"microvm.runs", []string{"microvm.Run"}},
	{"reap.invokes", []string{"reap.Invoke"}},
}

// layerCounts are the simulated per-layer counters the workloads report.
var layerCounts = []string{
	"workload.accesses", "workload.arrivals",
	"snapshot.bytes",
	"microvm.major_faults",
	"cluster.invocations", "cluster.pulls", "cluster.spills", "cluster.cold_starts",
	"insight.evals",
	"migrate.epochs", "migrate.moves", "migrate.moved_mib", "migrate.stall_ms",
	"mem.charges",
	"platform.requests", "platform.retries", "platform.degraded", "fault.injected",
	"telemetry.spans", "xray.budgets", "obs.samples",
}

// layerDists are the per-operation host-time distributions: the median and
// the highest percentile with at least ten samples beyond it, with n.
var layerDists = []struct{ prefix, span string }{
	{"microvm.run", "microvm.Run"},
	{"reap.invoke", "reap.Invoke"},
	{"platform.request", "platform.Replay"},
}

// layerUnits gives every per-layer metric its unit.
func layerUnits() map[string]string {
	u := map[string]string{
		"core.profile_changed_ratio": "ratio",
		"microvm.ns_per_access":      "ns",
		"cluster.ns_per_inv":         "ns",
		"snapshot.bytes":             "B",
		"migrate.moved_mib":          "MiB",
		"migrate.stall_ms":           "ms",
		"par.workers":                "count",
		"par.efficiency":             "ratio",
		"runtime.gc_cycles":          "count",
		"runtime.gc_pause_ms":        "ms",
		"runtime.gc_cpu_fraction":    "ratio",
		"trace.overhead_pct":         "%",
	}
	for _, l := range layerTimes {
		u[l.metric] = "s"
	}
	for _, l := range layerCalls {
		u[l.metric] = "count"
	}
	for _, c := range layerCounts {
		if _, ok := u[c]; !ok {
			u[c] = "count"
		}
	}
	for _, d := range layerDists {
		u[d.prefix+"_p50_us"] = "us"
		u[d.prefix+"_tail_us"] = "us"
		u[d.prefix+"_tail_pct"] = "%"
		u[d.prefix+"_n"] = "count"
	}
	return u
}

// layerMetrics computes the traced run's per-layer metrics: host time and
// calls of one set-up plus the median traced pass, the simulated counters
// of a pass, per-operation distributions pooled over the traced passes,
// and runtime and tracing-overhead figures from the interleaved untraced
// passes.
func layerMetrics(b *bench, o outcome, tr *tracer, setupEnd int, passes [][2]int, plain, traced []passStats) map[string]metric {
	setupSelf, setupCalls, _ := tr.fold(0, setupEnd)
	perPassSelf := map[string][]float64{}
	perPassCalls := map[string][]float64{}
	pooled := map[string][]time.Duration{}
	for _, p := range passes {
		self, calls, samples := tr.fold(p[0], p[1])
		for _, l := range layerTimes {
			var s time.Duration
			for _, n := range l.spans {
				s += self[n]
			}
			perPassSelf[l.metric] = append(perPassSelf[l.metric], s.Seconds())
		}
		for _, l := range layerCalls {
			var c int64
			for _, n := range l.spans {
				c += calls[n]
			}
			perPassCalls[l.metric] = append(perPassCalls[l.metric], float64(c))
		}
		for _, d := range layerDists {
			pooled[d.prefix] = append(pooled[d.prefix], samples[d.span]...)
		}
	}

	v := map[string]float64{}
	for _, l := range layerTimes {
		var s time.Duration
		for _, n := range l.spans {
			s += setupSelf[n]
		}
		v[l.metric] = s.Seconds() + median(perPassSelf[l.metric])
	}
	for _, l := range layerCalls {
		var c int64
		for _, n := range l.spans {
			c += setupCalls[n]
		}
		v[l.metric] = float64(c) + median(perPassCalls[l.metric])
	}
	for _, c := range layerCounts {
		v[c] = o.counts[c]
	}
	if n := v["core.profile_invocations"]; n > 0 {
		v["core.profile_changed_ratio"] = o.counts["core.changed_folds"] / n
	}
	if n := o.counts["microvm.accesses"]; n > 0 {
		v["microvm.ns_per_access"] = v["microvm.run_s"] * 1e9 / n
	}
	if n := v["cluster.invocations"]; n > 0 {
		v["cluster.ns_per_inv"] = v["cluster.run_s"] * 1e9 / n
	}
	for _, d := range layerDists {
		xs := pooled[d.prefix]
		v[d.prefix+"_n"] = float64(len(xs))
		if len(xs) == 0 {
			continue
		}
		us := make([]float64, len(xs))
		for i, x := range xs {
			us[i] = float64(x) / 1e3
		}
		p := tailPercentile(len(us))
		v[d.prefix+"_p50_us"] = stats.NearestRankInPlace(us, 50)
		v[d.prefix+"_tail_pct"] = p
		if p > 0 {
			v[d.prefix+"_tail_us"] = stats.NearestRankInPlace(us, p)
		}
	}

	var wall, cpu, gcs, pause, gcFrac, twall []float64
	for _, p := range plain {
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		gcs = append(gcs, float64(p.gcCycles))
		pause = append(pause, float64(p.gcPause)/1e6)
		if p.gcTotal > 0 {
			gcFrac = append(gcFrac, p.gcCPU/p.gcTotal)
		}
	}
	for _, p := range traced {
		twall = append(twall, p.wall.Seconds())
	}
	v["par.workers"] = float64(b.workers)
	v["par.efficiency"] = median(cpu) / (median(wall) * float64(b.workers))
	v["runtime.gc_cycles"] = median(gcs)
	v["runtime.gc_pause_ms"] = median(pause)
	v["runtime.gc_cpu_fraction"] = median(gcFrac)
	v["trace.overhead_pct"] = (median(twall)/median(wall) - 1) * 100

	m := map[string]metric{}
	for name, unit := range layerUnits() {
		m[name] = metric{v[name], unit}
	}
	return m
}
