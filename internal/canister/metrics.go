package canister

import (
	"icbtc/internal/ic"
	"icbtc/internal/obs"
)

// canisterMetrics is the canister's obs instrumentation: per-method call and
// metered-instruction counters precomputed from the method registry (so the
// dispatch hot path is a map hit, not a lock), payload/fold/snapshot
// timings, and the frame-stream counters. All names carry the canister_
// prefix so merged snapshots (chaos, bench) stay collision-free.
type canisterMetrics struct {
	reg *obs.Registry

	// Per-method, precomputed from methodTable at construction.
	calls        map[string]*obs.Counter
	instructions map[string]*obs.Counter

	payloads        *obs.Counter
	payloadDuration *obs.Histogram
	blocksIngested  *obs.Counter
	blocksRejected  *obs.Counter
	headersRejected *obs.Counter
	anchorAdvances  *obs.Counter

	framesPublished *obs.Counter
	framesApplied   *obs.Counter
	frameApplyNanos *obs.Histogram
	applyErrors     *obs.Counter

	snapshotNanos *obs.Histogram
	restores      *obs.Counter
	snapshotBytes *obs.Gauge
}

func newCanisterMetrics() *canisterMetrics {
	r := obs.NewRegistry()
	m := &canisterMetrics{
		reg:          r,
		calls:        make(map[string]*obs.Counter, len(methodTable)),
		instructions: make(map[string]*obs.Counter, len(methodTable)),

		payloads:        r.Counter("canister_payloads_total"),
		payloadDuration: r.Histogram("canister_payload_duration_ns", obs.DurationBuckets),
		blocksIngested:  r.Counter("canister_blocks_ingested_total"),
		blocksRejected:  r.Counter("canister_blocks_rejected_total"),
		headersRejected: r.Counter("canister_headers_rejected_total"),
		anchorAdvances:  r.Counter("canister_anchor_advances_total"),

		framesPublished: r.Counter("canister_frames_published_total"),
		framesApplied:   r.Counter("canister_frames_applied_total"),
		frameApplyNanos: r.Histogram("canister_frame_apply_duration_ns", obs.DurationBuckets),
		applyErrors:     r.Counter("canister_apply_errors_total"),

		snapshotNanos: r.Histogram("canister_snapshot_duration_ns", obs.DurationBuckets),
		// Restores are counted, not timed: a restore runs before any driver
		// can install a virtual clock on the fresh canister's registry, so a
		// wall-clock duration histogram here would break the seeded harnesses'
		// bit-identical-snapshot guarantee.
		restores:      r.Counter("canister_restores_total"),
		snapshotBytes: r.Gauge("canister_snapshot_bytes"),
	}
	callFam := r.Family("canister_method_calls_total", "method")
	instrFam := r.Family("canister_method_instructions_total", "method")
	for _, desc := range methodTable {
		m.calls[desc.Name] = callFam.With(desc.Name)
		m.instructions[desc.Name] = instrFam.With(desc.Name)
	}
	return m
}

// Metrics returns the canister's obs registry. Seeded drivers install the
// scheduler clock on it (SetClock) so instrumentation timing is virtual and
// same-seed runs produce bit-identical snapshots.
func (c *BitcoinCanister) Metrics() *obs.Registry { return c.met.reg }

// recordDispatch bumps the per-method call counter and, after the handler
// ran, attributes the metered instructions the call charged. Lock-free:
// both counters were precomputed from the registry table.
func (c *BitcoinCanister) recordDispatch(method string, meter *ic.Meter, before uint64) {
	c.met.calls[method].Inc()
	if meter != nil {
		c.met.instructions[method].Add(meter.Total() - before)
	}
}

// GetMetrics serves the get_metrics endpoint: the registry's snapshot, which
// the response digest certifies like any other answer. Like get_health it
// skips checkServable — telemetry must remain readable exactly when the
// canister is unhealthy. Chain-position gauges are stamped from live state
// at serve time, so two replicas at the same frame report identical values
// for them (the subset the differential harness compares).
func (c *BitcoinCanister) GetMetrics(ctx *ic.CallContext) (*obs.Snapshot, error) {
	ctx.Meter.Charge(ic.CostRequestBase, "request_base")
	r := c.met.reg
	r.Gauge("canister_tip_height").Set(c.tipNode().Height)
	r.Gauge("canister_anchor_height").Set(c.tree.Root().Height)
	r.Gauge("canister_available_height").Set(c.availableHeight)
	r.Gauge("canister_stable_utxos").Set(int64(c.stable.Len()))
	r.Gauge("canister_unstable_blocks").Set(int64(len(c.blocks)))
	synced := int64(0)
	if c.synced {
		synced = 1
	}
	r.Gauge("canister_synced").Set(synced)
	return r.Snapshot(), nil
}

// DeterministicMetricGauges is the subset of get_metrics gauge names that
// are pure functions of the applied chain state: equal for any two replicas
// (or the replay oracle) at the same frame, regardless of request history,
// hydration point, or scheduling. The differential harness restricts its
// oracle-vs-subject metrics comparison to this set.
var DeterministicMetricGauges = []string{
	"canister_anchor_height",
	"canister_available_height",
	"canister_stable_utxos",
	"canister_synced",
	"canister_tip_height",
	"canister_unstable_blocks",
}
