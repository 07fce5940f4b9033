package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every workload.
// A request is one proof on exact, one HTTP solve request on serve and one
// batch item on batch; the latencies on batch are per batch request.
var endToEnd = []metricDef{
	{"throughput_rps", "req/s"},
	{"latency_tail_ms", "ms"},
	{"mem_peak_mb", "MB"},
	{"setup_s", "s"},
}

// serverStages are the span names of the server's /debug/trace/{id} tree,
// normalized by stageName.
var serverStages = []string{
	"canonicalize", "cache-probe", "lane-queue", "cache", "cache-wait",
	"warm-start", "heuristics", "engine-astar", "engine-ida", "translate",
}

// perLayer are the metrics every traced run reports; one a workload never
// exercises reads 0. The first group are end-to-end metrics, measured in
// the traced run's untraced window, that are unsteady across seeds (the
// median and geometric mean of latency vary by a fifth on serve), exist
// only on some workloads, or can read 0.
var perLayer = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_geomean_ms", "ms"},
	{"solve_s", "s"},
	{"proof_geomean_ms", "ms"},
	{"items_per_s", "items/s"},
	{"hit_latency_p99_ms", "ms"},
	{"job_latency_p50_ms", "ms"},
	{"optimal_frac", "ratio"},
	{"gap_mean", "ratio"},
	{"error_frac", "ratio"},
	{"latency_tail_pct", "pct"},
	{"latency_samples", "count"},

	{"solve.astar.ns_per_expansion", "ns"},
	{"solve.astar.expanded", "count"},
	{"solve.astar.table_mb", "MB"},
	{"solve.dijkstra.ns_per_expansion", "ns"},
	{"solve.ida.ns_per_visit", "ns"},
	{"solve.ida.visits", "count"},
	{"solve.ida.table_mb", "MB"},
	{"solve.root_bound_us", "us"},
	{"solve.heuristics_ms", "ms"},
	{"solve.snapshot_overhead_frac", "ratio"},
	{"anytime.solve_ms", "ms"},
	{"anytime.ida_win_frac", "ratio"},
	{"anytime.phase1_closed_frac", "ratio"},
	{"anytime.race_overhead_frac", "ratio"},

	{"instcache.canon_us.p50", "us"},
	{"instcache.canon_us.p99", "us"},
	{"instcache.probe_us", "us"},
	{"instcache.translate_us", "us"},
	{"instcache.hit_frac", "ratio"},
	{"instcache.tighten_frac", "ratio"},
	{"instcache.dedup_frac", "ratio"},
	{"instcache.evictions", "count"},
	{"pebble.replay_us", "us"},
	{"service.build_us", "us"},
	{"service.handler_us", "us"},
	{"service.stage_ms.canonicalize", "ms"},
	{"service.stage_ms.cache-probe", "ms"},
	{"service.stage_ms.lane-queue", "ms"},
	{"service.stage_ms.cache", "ms"},
	{"service.stage_ms.cache-wait", "ms"},
	{"service.stage_ms.warm-start", "ms"},
	{"service.stage_ms.heuristics", "ms"},
	{"service.stage_ms.engine-astar", "ms"},
	{"service.stage_ms.engine-ida", "ms"},
	{"service.stage_ms.translate", "ms"},
	{"service.lane_wait_ms.fast", "ms"},
	{"service.lane_wait_ms.heavy", "ms"},
	{"service.shed_frac", "ratio"},
	{"service.metrics_scrape_ms", "ms"},

	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"bench.client_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
}
