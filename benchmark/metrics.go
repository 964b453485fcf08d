package main

import "fmt"

// The names below are the benchmark's public surface: BENCHMARK.json at the
// root of the repo declares exactly these workloads and metrics (a test
// holds the two equal), and later issues cite them.

// WorkloadDef names one workload and records why it exists.
type WorkloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricDef names one metric with its unit and direction.
type MetricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	wlIngestSync = "ingest_sync"
	wlQueryHot   = "query_hot"
	wlQueryCold  = "query_cold"
	wlTipMixed   = "tip_mixed"
)

var workloadDefs = []WorkloadDef{
	{wlIngestSync, "catch-up: 600 wire blocks through SyncWire, then Snapshot and parallel restore; no fleet, so btc/utxo/ingest do all the work and a serving-side change must not move it"},
	{wlQueryHot, "static tip, 64 hot addresses under Zipf 1.5 against a 512-entry cache: ~100% hits, so request key + cache lookup are the whole cost and the canister read path is bypassed"},
	{wlQueryCold, "static tip, 2000 distinct keys uniform against the same 512-entry cache: most queries pay key + miss + flight + replica execute + index scan, the path query_hot bypasses"},
	{wlTipMixed, "a block falls due every 100 ms beside a 20k/s open-loop query stream: the only workload that pays frame encode/decode/apply and shows the reader stall behind the replica write lock"},
}

// Every workload reports every end-to-end metric; what the generic names
// mean on each workload is tabulated in README.md.
var endToEndDefs = []MetricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"kinstr_per_op", "kinstr", "lower"},
	{"snapshot_bytes_per_utxo", "B", "lower"},
	{"heap_bytes_per_utxo", "B", "lower"},
}

// Per-layer metrics, prefix = module. Timings are medians per call.
var perLayerDefs = []MetricDef{
	{"btc.parse_block_us", "us", "lower"},
	{"btc.parse_block_fast_us", "us", "lower"},
	{"btc.parse_allocs_per_block", "count", "lower"},
	{"btc.txid_hash_us", "us", "lower"},
	{"btc.merkle_root_us", "us", "lower"},
	{"utxo.prepare_delta_us", "us", "lower"},
	{"utxo.apply_block_us", "us", "lower"},
	{"utxo.apply_allocs_per_block", "count", "lower"},
	{"ingest.map_overhead_ns", "ns", "lower"},
	{"ingest.pipeline_speedup", "ratio", "higher"},
	{"canister.sync_wire_serial_blocks_per_s", "blocks/s", "higher"},
	{"canister.process_payload_us", "us", "lower"},
	{"canister.process_payload_allocs", "count", "lower"},
	{"canister.frame_bytes_per_block", "B", "lower"},
	{"canister.encode_frame_us", "us", "lower"},
	{"canister.decode_frame_us", "us", "lower"},
	{"canister.apply_frame_us", "us", "lower"},
	{"utxo.encode_set_ms", "ms", "lower"},
	{"utxo.decode_set_ms", "ms", "lower"},
	{"utxo.decode_set_parallel_ms", "ms", "lower"},
	{"canister.restore_serial_ms", "ms", "lower"},
	{"queryfleet.hydrate_replica_ms", "ms", "lower"},
	{"canister.get_balance_ns", "ns", "lower"},
	{"canister.get_utxos_page10_us", "us", "lower"},
	{"canister.get_utxos_page1000_us", "us", "lower"},
	{"canister.get_fee_percentiles_us", "us", "lower"},
	{"canister.get_utxos_kinstr", "kinstr", "lower"},
	{"utxo.merged_page_us", "us", "lower"},
	{"canister.request_key_ns", "ns", "lower"},
	{"queryfleet.route_hit_ns", "ns", "lower"},
	{"queryfleet.route_bare_ns", "ns", "lower"},
	{"queryfleet.route_overhead_ns", "ns", "lower"},
	{"queryfleet.route_miss_us", "us", "lower"},
	{"queryfleet.cache_hit_ratio", "ratio", "higher"},
	{"queryfleet.cache_fills", "count", "lower"},
	{"queryfleet.coalesced", "count", "higher"},
	{"queryfleet.served", "count", "lower"},
	{"queryfleet.forwarded", "count", "lower"},
	{"queryfleet.frames", "count", "lower"},
	{"queryfleet.feed_us", "us", "lower"},
	{"queryfleet.apply_pending_us", "us", "lower"},
	{"queryfleet.clients2_qps_ratio", "ratio", "higher"},
	{"ic.response_digest_ns", "ns", "lower"},
	{"tecdsa.sign_schnorr_ms", "ms", "lower"},
	{"obs.tracer_on_qps_ratio", "ratio", "higher"},
	{"tip.share.parse", "share", "lower"},
	{"tip.share.process_payload", "share", "lower"},
	{"tip.share.feed", "share", "lower"},
	{"tip.share.apply_pending", "share", "lower"},
	{"tip.share.probe", "share", "lower"},
	{"bench.stage_sum_error_pct", "%", "lower"},
	{"bench.block_to_queryable_ms_p95", "ms", "lower"},
	{"bench.query_from_due_us_p95", "us", "lower"},
	{"bench.query_from_due_us_p99", "us", "lower"},
	{"bench.query_hot_p99_us", "us", "lower"},
	{"bench.block_generator_late_ms_p95", "ms", "lower"},
	{"bench.query_generator_late_us_p99", "us", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	// Demoted from the end-to-end list (see README.md, "Demotion rule"):
	// metrics of one workload only, or too noisy to gate.
	{"snapshot_ms", "ms", "lower"},
	{"hydrate_ms", "ms", "lower"},
	{"query_p99_us", "us", "lower"},
	{"query_over_1ms_share", "share", "lower"},
	{"failed_ops_share", "share", "lower"},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// report attaches units to values; a name the table does not declare, or a
// declared name without a value, is a bug in the harness.
func report(defs []MetricDef, values map[string]float64) (map[string]Metric, error) {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("no value for metric %s", d.Name)
		}
		out[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}
