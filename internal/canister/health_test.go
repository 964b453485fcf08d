package canister

import (
	"testing"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/obs"
)

// TestGetHealthServesWhileUnsynced: get_health must answer — and explain —
// exactly when the data endpoints refuse.
func TestGetHealthServesWhileUnsynced(t *testing.T) {
	r := newRig(t, 41)

	// A fresh canister has seen no adapter report yet.
	v, err := r.can.Query(r.ctx(), "get_health", nil)
	if err != nil {
		t.Fatalf("get_health on fresh canister: %v", err)
	}
	h := v.(*HealthStatus)
	if h.AdapterState != adapter.StateUnknown || !h.Synced || h.Degraded {
		t.Fatalf("fresh canister health %+v", h)
	}

	// Headers-only payload from a degraded adapter: the canister learns of 6
	// blocks it doesn't have → unsynced, and the health report says why.
	if _, err := r.miner.MineChain(6, 0); err != nil {
		t.Fatal(err)
	}
	var headers []btc.BlockHeader
	for _, n := range r.node.Tree().CurrentChain()[1:] {
		headers = append(headers, n.Header)
	}
	resp := adapter.Response{
		Next:   headers,
		Health: adapter.Health{State: adapter.StateDegraded, Height: 6, Peers: 3},
	}
	if err := r.can.ProcessPayload(r.ctx(), resp); err != nil {
		t.Fatal(err)
	}
	if r.can.Synced() {
		t.Fatal("synced despite 6-block lag")
	}
	if _, err := r.can.GetBalance(r.ctx(), GetBalanceArgs{Address: r.minerAddr().String()}); err == nil {
		t.Fatal("get_balance served while unsynced")
	}
	v, err = r.can.Query(r.ctx(), "get_health", nil)
	if err != nil {
		t.Fatalf("get_health while unsynced: %v", err)
	}
	h = v.(*HealthStatus)
	if h.AdapterState != adapter.StateDegraded || !h.Degraded {
		t.Fatalf("degraded adapter not reflected: %+v", h)
	}
	if h.Synced {
		t.Fatal("health claims synced while the data endpoints refuse")
	}
	if h.AdapterHeight != 6 || h.AvailableHeight != 0 || h.TipLag != 6 {
		t.Fatalf("lag accounting wrong: %+v", h)
	}

	// Blocks arrive from a recovered adapter: back to normal.
	r.feedChain()
	if err := r.can.ProcessPayload(r.ctx(), adapter.Response{
		Health: adapter.Health{State: adapter.StateSyncing, Height: 6},
	}); err != nil {
		t.Fatal(err)
	}
	v, _ = r.can.Query(r.ctx(), "get_health", nil)
	h = v.(*HealthStatus)
	if h.Degraded || !h.Synced || h.TipLag != 0 {
		t.Fatalf("recovery not reflected: %+v", h)
	}
}

// TestHealthFramePropagation: a health change alone forces a stream frame
// (with zero events), the frame round-trips through the codec, and a replica
// applying it answers get_health like the authority — degradation is
// observable behind the fleet without any payload reaching the replica.
func TestHealthFramePropagation(t *testing.T) {
	r := newRig(t, 42)
	var frames []*Frame
	r.can.SetStreamSink(func(f *Frame) { frames = append(frames, f) })

	// An empty payload with unchanged (zero) health publishes nothing.
	if err := r.can.ProcessPayload(r.ctx(), adapter.Response{}); err != nil {
		t.Fatal(err)
	}
	if len(frames) != 0 {
		t.Fatalf("empty payload with unchanged health published %d frames", len(frames))
	}

	// A health flip with no chain data must publish a health-only frame.
	degraded := adapter.Health{State: adapter.StateDegraded, Height: 3, PendingBlocks: 2, Peers: 1}
	if err := r.can.ProcessPayload(r.ctx(), adapter.Response{Health: degraded}); err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Fatalf("health change published %d frames, want 1", len(frames))
	}
	if len(frames[0].Events) != 0 || frames[0].Health != degraded {
		t.Fatalf("health-only frame wrong: %d events, health %+v", len(frames[0].Events), frames[0].Health)
	}

	// The same health again: no new frame (no health-frame spam per payload).
	if err := r.can.ProcessPayload(r.ctx(), adapter.Response{Health: degraded}); err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Fatalf("unchanged health republished: %d frames", len(frames))
	}

	// Codec round-trip preserves the health report.
	decoded, err := DecodeFrame(EncodeFrame(frames[0]))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Health != degraded {
		t.Fatalf("health lost in codec round-trip: %+v", decoded.Health)
	}

	// A replica applying the frame reports the degradation.
	replica := New(DefaultConfig(btc.Regtest))
	if err := replica.ApplyFrame(decoded); err != nil {
		t.Fatal(err)
	}
	v, err := replica.Query(r.ctx(), "get_health", nil)
	if err != nil {
		t.Fatal(err)
	}
	h := v.(*HealthStatus)
	if h.AdapterState != adapter.StateDegraded || !h.Degraded {
		t.Fatalf("replica missed the degradation: %+v", h)
	}

	// Recovery propagates the same way.
	if err := r.can.ProcessPayload(r.ctx(), adapter.Response{
		Health: adapter.Health{State: adapter.StateSyncing, Height: 3, Peers: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("recovery frame missing: %d frames", len(frames))
	}
	if err := replica.ApplyFrame(frames[1]); err != nil {
		t.Fatal(err)
	}
	v, _ = replica.Query(r.ctx(), "get_health", nil)
	if h := v.(*HealthStatus); h.Degraded || h.AdapterState != adapter.StateSyncing {
		t.Fatalf("replica stuck degraded: %+v", h)
	}
}

// TestGetMetricsStampsChainGauges: get_metrics answers with the registry's
// snapshot, and each deterministic gauge in it is the chain state the
// canister reports through its own accessors.
func TestGetMetricsStampsChainGauges(t *testing.T) {
	r := newRig(t, 43)
	if _, err := r.miner.MineChain(10, 0); err != nil {
		t.Fatal(err)
	}
	r.feedChain()
	v, err := r.can.Query(r.ctx(), "get_metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := v.(*obs.Snapshot)
	if !ok {
		t.Fatalf("get_metrics answered %T, want *obs.Snapshot", v)
	}
	got := map[string]int64{}
	for _, g := range snap.Gauges {
		got[g.Name] = g.Value
	}
	synced := int64(0)
	if r.can.Synced() {
		synced = 1
	}
	want := map[string]int64{
		"canister_tip_height":       r.can.TipHeight(),
		"canister_anchor_height":    r.can.AnchorHeight(),
		"canister_available_height": r.can.AvailableHeight(),
		"canister_stable_utxos":     int64(r.can.StableUTXOCount()),
		"canister_unstable_blocks":  int64(r.can.UnstableBlockCount()),
		"canister_synced":           synced,
	}
	if len(DeterministicMetricGauges) != len(want) {
		t.Fatalf("DeterministicMetricGauges has %d names, the test checks %d", len(DeterministicMetricGauges), len(want))
	}
	for _, name := range DeterministicMetricGauges {
		w, checked := want[name]
		if !checked {
			t.Errorf("%s: no expected value", name)
			continue
		}
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s = %d (present %v), canister reports %d", name, g, ok, w)
		}
	}
	if r.can.TipHeight() != 10 || synced != 1 {
		t.Fatalf("fed chain: tip %d synced %v", r.can.TipHeight(), r.can.Synced())
	}
}
