package main

// This file is the benchmark's vocabulary: the workload and metric
// names every later PR refers to. BENCHMARK.json repeats the names,
// units and bounds for the driver; TestSpecMatchesBenchmarkJSON keeps
// the two in step.

// endpoint is one query surface of a serving node.
type endpoint uint8

const (
	epIntent     endpoint = iota // GET /intent?q=
	epIntentions                 // GET /intentions?id=&k=10
	epSimilar                    // GET /similar?q=&k=10
	epRelated                    // GET /related?id=&k=10
)

// route is how a workload's operations reach the system.
type route uint8

const (
	routeRouter  route = iota // cluster.Router.Do over 3 HTTP nodes
	routeBatch                // POST /batch straight at node 0
	routeOffline              // no requests: one op is one pipeline build
)

// mixEntry is one endpoint's share of a workload's traffic.
type mixEntry struct {
	ep    endpoint
	share float64
}

// workload is one named traffic mix.
type workload struct {
	name  string
	route route
	mix   []mixEntry
	// rateRPS is the open phase's fixed arrival rate: 0.5 x the
	// closed-loop capacity_rps measured at the seed commit on the
	// 2-core reference machine, rounded to 2 significant digits (see
	// README, "Calibration"). Frozen: a later PR must not retune it.
	rateRPS int
	// refresh turns on the rolling snapshot refresh beside the reads.
	refresh bool
}

// batchItems is the item count of one batch-direct request.
const batchItems = 64

var lookupMix = []mixEntry{{epIntent, 0.5}, {epIntentions, 0.4}, {epSimilar, 0.1}}

var workloads = []workload{
	{name: "lookup-zipf", route: routeRouter, mix: lookupMix, rateRPS: 8000},
	{name: "related-heavy", route: routeRouter, mix: []mixEntry{{epRelated, 1}}, rateRPS: 2000},
	{name: "batch-direct", route: routeBatch, mix: []mixEntry{{epIntent, 0.5}, {epIntentions, 0.5}}, rateRPS: 1500},
	{name: "refresh-under-load", route: routeRouter, mix: lookupMix, rateRPS: 2000, refresh: true},
	{name: "offline-build", route: routeOffline},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees on every workload; printed
// by --trace 0 and listed, with bounds, in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_quiet_ms", "ms"},
	{"capacity_quiet_rps", "1/s"},
	{"allocs_per_op", "count"},
	{"live_heap_mb", "MiB"},
}

// guardDef is an end-to-end metric -compare holds to a bound of the
// harness's own.
type guardDef struct {
	metricDef
	better string
	bound  float64
	on     func(w *workload) bool // the workloads it applies to
}

func everywhere(*workload) bool   { return true }
func online(w *workload) bool     { return w.route != routeOffline }
func offline(w *workload) bool    { return w.route == routeOffline }
func refreshing(w *workload) bool { return w.refresh }

// guarded are the issue's end-to-end metrics that BENCHMARK.json does
// not list. It takes one metric set that every workload reports, never
// 0, and the driver refuses a benchmark on which two sets of runs of
// one commit disagree or spread by more than a bound of at most 0.25.
// Four of these apply to some workloads only. The other three are the
// issue's plain estimators: on the 2-vCPU reference guest, whose
// neighbours slow stretches of a run, their A/A spread reaches that
// limit in a busy hour, so BENCHMARK.json carries the quiet-window
// estimators (lat_quiet_ms, capacity_quiet_rps) in their place. An
// end-to-end run prints the guarded metrics, -out records them and
// -compare holds them to these bounds, reporting unresolved where the
// spread is wider. fail_ratio, the tenth, is failed / attempted.
var guarded = []guardDef{
	{metricDef{"lat_p50_ms", "ms"}, "lower", 0.25, everywhere},
	{metricDef{"lat_p99_ms", "ms"}, "lower", 0.25, online},
	{metricDef{"capacity_rps", "1/s"}, "higher", 0.25, everywhere},
	{metricDef{"swap_stall_ms", "ms"}, "lower", 0.25, refreshing},
	{metricDef{"build_s", "s"}, "lower", 0.25, offline},
	{metricDef{"teacher_ms_per_edge", "sim_ms/edge"}, "lower", 0.05, offline},
	{metricDef{"artifact_bytes_per_edge", "B/edge"}, "lower", 0.05, offline},
}

// perLayer attributes time and work to single modules; printed by
// --trace 1. Every trace run measures every entry (see tracerun.go).
var perLayer = []metricDef{
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.queued_202", "count"},
	{"loadgen.sched_lag_p99_ms", "ms"},
	{"loadgen.lat_p99_ms", "ms"},
	{"loadgen.lat_p999_ms", "ms"},
	{"loadgen.lat_max_ms", "ms"},

	{"cluster.ring_walk_ns", "ns"},
	{"cluster.route_self_us", "us"},
	{"cluster.attempt_us", "us"},
	{"cluster.attempt_p99_us", "us"},
	{"cluster.hop_us", "us"},
	{"cluster.hedges_per_req", "ratio"},
	{"cluster.hedge_win_ratio", "ratio"},
	{"cluster.failovers", "count"},

	{"serving.handler_us", "us"},
	{"serving.handler_p99_us", "us"},
	{"serving.batch_handler_us", "us"},
	{"serving.handle_query_ns", "ns"},
	{"serving.cache_hit_ratio", "ratio"},
	{"serving.queue_dropped", "count"},
	{"serving.stale_served", "count"},
	{"serving.encode_intentions_ns", "ns"},
	{"serving.encode_related_ns", "ns"},
	{"serving.batch_append_us", "us"},
	{"serving.batch_lookups_per_s", "1/s"},
	{"serving.refresh_ms", "ms"},
	{"serving.swap_stall_ms", "ms"},

	{"wire.resp_bytes_p50", "B"},
	{"wire.append_ns_per_byte", "ns/B"},

	{"kg.intentions_ns", "ns"},
	{"kg.sym_lookup_ns", "ns"},
	{"kg.related_us", "us"},
	{"kg.related_p99_us", "us"},
	{"kg.similar_us", "us"},
	{"kg.ann_build_ms", "ms"},
	{"kg.freeze_ms", "ms"},
	{"kg.pack_ms", "ms"},
	{"kg.map_ms", "ms"},
	{"kg.verify_ms", "ms"},
	{"kg.first_touch_ms", "ms"},
	{"kg.heap_bytes_per_edge", "B/edge"},
	{"kg.edges", "count"},
	{"kg.nodes", "count"},
	{"kg.file_bytes", "B"},
	{"kg.artifact_bytes_per_edge", "B/edge"},

	{"embedding.embed_ns", "ns"},

	{"core.world_ms", "ms"},
	{"core.sample_ms", "ms"},
	{"core.generate_ms", "ms"},
	{"core.filter_ms", "ms"},
	{"core.annotate_ms", "ms"},
	{"core.critic_assemble_ms", "ms"},
	{"core.instruct_train_ms", "ms"},
	{"core.expand_ms", "ms"},
	{"core.canonicalize_ms", "ms"},
	{"core.candidates_raw", "count"},
	{"core.candidates_kept", "count"},
	{"core.keep_ratio", "ratio"},
	{"core.annotated", "count"},
	{"core.edges_admitted", "count"},
	{"core.edges_expanded", "count"},
	{"core.edges_final", "count"},

	{"llm.teacher_calls", "count"},
	{"llm.teacher_sim_ms", "sim_ms"},
	{"llm.teacher_ms_per_edge", "sim_ms/edge"},
	{"cosmolm.sim_ms", "sim_ms"},

	{"proc.allocs_per_op", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.cpu_s", "s"},
	{"proc.alloc_mb_per_build", "MiB"},

	{"setup.world_s", "s"},
	{"setup.scale_s", "s"},

	{"trace.spans", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.attributed_ratio", "ratio"},
}
