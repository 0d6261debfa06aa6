package main

// metricDef names one metric. README.md defines each; BENCHMARK.json at the
// root of the repository lists the same names, units, directions and bounds,
// and bench_test.go checks the two agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the engine would see. Every workload
// reports every one of them, from a run with tracing off.
var endToEnd = []metricDef{
	{Name: "op_geomean_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "stored_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are metrics of single layers (layer = package of this repository),
// measured from outside in the traced run. They have no bound. A workload that
// never calls a layer reports 0 for it.
var perLayer = []metricDef{
	{Name: "sqlparse.parse_us", Unit: "us", Better: "lower"},
	{Name: "sqlparse.parse_allocs", Unit: "count", Better: "lower"},
	{Name: "plan.bind_us", Unit: "us", Better: "lower"},
	{Name: "plan.qerror_median", Unit: "ratio", Better: "lower"},
	{Name: "plancache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "exec.query_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.mal_instrs", Unit: "count", Better: "lower"},
	{Name: "exec.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "workpool.grant_ratio", Unit: "ratio", Better: "higher"},
	{Name: "result.convert_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.open_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "txn.commit_service_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "txn.commit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "delta.merges", Unit: "count", Better: "lower"},
	{Name: "delta.merge_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "delta.reads_with_delta", Unit: "count", Better: "lower"},
	{Name: "netproto.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "netproto.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "server.wire_export_mrows_per_s", Unit: "Mrow/s", Better: "higher"},
	{Name: "server.overhead_us", Unit: "us", Better: "lower"},
	{Name: "mem.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "mem.live_mb", Unit: "MB", Better: "lower"},
	{Name: "tail.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// metric is one reading, as the last line of a run prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// readings pairs definitions with values by name; a definition without a
// value reads 0.
func readings(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}
