package main

import "fmt"

// metricDef declares one metric of the benchmark. BENCHMARK.json is this
// table written out (`-manifest`); TestManifestInSync keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median the metric may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the metrics a user of the system would see. Every workload
// reports every one. The timed metrics keep the contract's ceiling of 25 %:
// the middle half of ten runs of one build on ten seeds spreads over 1–4 % of
// the median on the training workloads and up to 13 % on the serving ones
// (README.md, "Noise and bounds"), but the host this runs on has shown spells
// no table of ten runs holds, and a bound is there to catch regressions, not
// weather.
//
// Three names differ from ISSUE.md. The benchmark contract admits no
// end-to-end metric that reads 0: failed_share (0 on a healthy build) is
// reported as its complement ok_share, and max_ok_rate, which only the
// open-loop workload can measure, is for a closed-loop workload the rate its
// loop sustained (= ops_per_s). peak_rss_mb became rss_mb, the median of the
// resident set sampled over the run: the peak is one number decided by the
// collector's timing at the run's worst moment.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "ok_share", Unit: "share", Better: higher, Bound: 0.10},
	{Name: "max_ok_rate", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "rss_mb", Unit: "MiB", Better: lower, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// perLayer lists the metrics of single layers (layer = module name), all
// measured from this directory by timing calls into the layer's public
// functions and by wrapping the Transport/Resolver the harness constructs.
// Every workload reports every one; a metric of a layer the workload does
// not run reads 0. README.md maps each to the end-to-end metric and workload
// it should move.
var perLayer = []metricDef{
	{"tf.build_ms", "ms", lower, 0},
	{"tf.session_run_p50_us", "us", lower, 0},
	{"tf.freeze_ms", "ms", lower, 0},

	{"graph.optimize_ms", "ms", lower, 0},
	{"graph.nodes_before", "count", lower, 0},
	{"graph.nodes_after", "count", lower, 0},
	{"graph.def_bytes", "bytes", lower, 0},
	{"graph.marshal_ms", "ms", lower, 0},
	{"graph.unmarshal_ms", "ms", lower, 0},

	{"placement.place_ms", "ms", lower, 0},
	{"partition.partition_ms", "ms", lower, 0},
	{"partition.parts", "count", lower, 0},
	{"partition.send_recv_pairs", "count", lower, 0},

	{"exec.compile_ms", "ms", lower, 0},
	{"exec.run_p50_us", "us", lower, 0},
	{"exec.nodes_per_step", "count", lower, 0},
	{"exec.null_dispatch_ns_per_node", "ns", lower, 0},
	{"exec.null_dispatch_frame_ns_per_node", "ns", lower, 0},
	{"exec.allocs_per_step", "count", lower, 0},
	{"exec.alloc_kb_per_step", "KiB", lower, 0},
	{"exec.planned_buffers", "count", higher, 0},

	{"core.run_overhead_us", "us", lower, 0},
	{"core.cached_subgraphs", "count", lower, 0},

	{"tensor.flops_per_step", "count", lower, 0},
	{"tensor.kernel_ms_per_step", "ms", lower, 0},
	{"tensor.matmul_gflops", "GFLOP/s", higher, 0},
	{"tensor.write_mb_s", "MB/s", higher, 0},
	{"tensor.read_mb_s", "MB/s", higher, 0},
	{"tensor.gob_encode_mb_s", "MB/s", higher, 0},
	{"tensor.gob_decode_mb_s", "MB/s", higher, 0},

	{"rendezvous.send_recv_ns", "ns", lower, 0},

	{"distributed.rpc_calls_per_step.RunGraph", "count", lower, 0},
	{"distributed.rpc_calls_per_step.RecvTensor", "count", lower, 0},
	{"distributed.rpc_calls_per_step.PushGradients", "count", lower, 0},
	{"distributed.rpc_p50_us.RunGraph", "us", lower, 0},
	{"distributed.rpc_p50_us.RecvTensor", "us", lower, 0},
	{"distributed.rpc_p50_us.PushGradients", "us", lower, 0},
	{"distributed.rpc_payload_kb_per_step.RunGraph", "KiB", lower, 0},
	{"distributed.rpc_payload_kb_per_step.RecvTensor", "KiB", lower, 0},
	{"distributed.rpc_payload_kb_per_step.PushGradients", "KiB", lower, 0},
	{"distributed.wire_kb_per_step", "KiB", lower, 0},
	{"distributed.encode_ms_per_step", "ms", lower, 0},
	{"distributed.inproc_op_p50_ms", "ms", lower, 0},
	{"distributed.wire_share", "share", lower, 0},
	{"distributed.push_apply_p50_us", "us", lower, 0},
	{"distributed.register_ms", "ms", lower, 0},
	{"distributed.rpc_errors", "count", lower, 0},
	{"distributed.retries", "count", lower, 0},

	{"train.build_ms", "ms", lower, 0},
	{"train.init_ms", "ms", lower, 0},
	{"train.compute_share", "share", higher, 0},
	{"train.push_share", "share", lower, 0},
	{"train.save_ms", "ms", lower, 0},

	{"checkpoint.write_mb_s", "MB/s", higher, 0},
	{"checkpoint.read_mb_s", "MB/s", higher, 0},

	{"serving.parse_us.rows1", "us", lower, 0},
	{"serving.parse_us.rows16", "us", lower, 0},
	{"serving.bind_us", "us", lower, 0},
	{"serving.predict_us", "us", lower, 0},
	{"serving.encode_us", "us", lower, 0},
	{"serving.http_overhead_us", "us", lower, 0},
	{"serving.window_wait_us", "us", lower, 0},
	{"serving.sat_qps", "1/s", higher, 0},
	{"serving.load_ms", "ms", lower, 0},
	{"serving.reload_ms", "ms", lower, 0},

	{"driver.op_p95_ms", "ms", lower, 0},
	{"driver.op_p99_ms", "ms", lower, 0},
	{"driver.samples", "count", higher, 0},
	{"driver.slice_spread", "share", lower, 0},
	{"driver.late_p99_ms", "ms", lower, 0},
	{"driver.gc_pause_ms_per_s", "ms/s", lower, 0},
	{"driver.cpu_sys_share", "share", lower, 0},
	{"driver.machine_speed", "share", higher, 0},
	{"driver.raw_op_p50_ms", "ms", lower, 0},
	{"driver.goroutines_leaked", "count", lower, 0},
	{"driver.tracing_overhead_share", "share", lower, 0},
}

// complete returns m restricted to the declared metrics, every one present
// (0 where the workload did not set it), and an error for a value set under
// a name the table does not declare — a typo would otherwise vanish.
func complete(defs []metricDef, m metrics) (metrics, error) {
	out := make(metrics, len(defs))
	for _, d := range defs {
		out[d.Name] = m[d.Name]
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is not declared in units.go", name)
		}
	}
	return out, nil
}
