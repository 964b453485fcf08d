package difftest

import (
	"flag"
	"runtime"
	"testing"

	"icbtc/internal/canister"
)

// seedFlag replays a single failing seed — the one-liner every difftest
// failure message prints.
var seedFlag = flag.Int64("difftest.seed", 0, "run only this workload seed (0 = full battery)")

// TestDifferentialOverlayVsReplay runs the randomized differential workload
// across a battery of fixed seeds: ≥ 1000 workload iterations in total,
// every get_utxos page and get_balance answer byte-identical between the
// overlay read path and the naive-replay oracle — with the overlay canister
// torn down to a snapshot and restored at random points along the way.
func TestDifferentialOverlayVsReplay(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}
	if *seedFlag != 0 {
		seeds = []int64{*seedFlag}
	}
	var agg Stats
	for _, seed := range seeds {
		cfg := DefaultConfig(seed)
		h := New(cfg)
		stats, err := h.Run()
		if err != nil {
			t.Fatal(err)
		}
		agg.Steps += stats.Steps
		agg.SnapshotRestores += stats.SnapshotRestores
		agg.SplitReorgs += stats.SplitReorgs
		agg.ScriptsDerived += stats.ScriptsDerived
		agg.FleetReplicaChecks += stats.FleetReplicaChecks
		agg.FleetLagSum += stats.FleetLagSum
		agg.FleetHydrations += stats.FleetHydrations
		agg.FleetForwardChecks += stats.FleetForwardChecks
		agg.FleetCertified += stats.FleetCertified
		agg.FleetServeChecks += stats.FleetServeChecks
		agg.FleetGenMisses += stats.FleetGenMisses
		agg.FleetCertifiedHits += stats.FleetCertifiedHits
		agg.FleetCacheHits += stats.FleetCacheHits
		agg.FleetCoalesced += stats.FleetCoalesced
		agg.PipelinedChecks += stats.PipelinedChecks
		agg.PipelinedRestores += stats.PipelinedRestores
		agg.PipelinedSerial += stats.PipelinedSerial
		agg.PipelinedWorkerSum += stats.PipelinedWorkerSum
		if stats.Reorgs == 0 {
			t.Errorf("seed %d: workload produced no reorgs", seed)
		}
		if stats.Queries == 0 || stats.BlocksMined == 0 {
			t.Errorf("seed %d: degenerate workload: %+v", seed, stats)
		}
		if stats.FleetFrames == 0 || stats.FleetReplicaChecks == 0 {
			t.Errorf("seed %d: fleet never exercised: %+v", seed, stats)
		}
	}
	if *seedFlag != 0 {
		// Single-seed replay mode exists to reproduce a failure, not to
		// re-prove the battery-wide coverage thresholds below.
		return
	}
	if agg.Steps < 1000 {
		t.Fatalf("only %d workload iterations, want >= 1000", agg.Steps)
	}
	if agg.SnapshotRestores < 100 {
		t.Fatalf("only %d snapshot/restores across the battery, want >= 100", agg.SnapshotRestores)
	}
	// A page holds coins, not scripts; the address must have named every
	// script the oracle saw, or the page lost something.
	if agg.ScriptsDerived == 0 {
		t.Fatal("no oracle UTXO's script was checked against its address")
	}
	// The fleet dimension must have real coverage: replicas verified at
	// nonzero lags (mid-reorg states included via split reorgs), snapshot
	// re-hydrations mid-workload, stale queries forwarded, and certified
	// responses verified under the subnet key.
	if agg.FleetLagSum == 0 {
		t.Fatal("every fleet replica check ran at zero lag; staleness never exercised")
	}
	if agg.SplitReorgs == 0 {
		t.Fatal("no reorg was delivered frame by frame; mid-reorg replica states never exercised")
	}
	if agg.FleetHydrations < 10 {
		t.Fatalf("only %d mid-run replica re-hydrations, want >= 10", agg.FleetHydrations)
	}
	if agg.FleetForwardChecks == 0 {
		t.Fatal("no too-stale query was forwarded to the authoritative canister")
	}
	if agg.FleetCertified < 10 {
		t.Fatalf("only %d certified responses verified, want >= 10", agg.FleetCertified)
	}
	// Serving-layer dimension: same-generation repeats served from the
	// certified hot cache byte-identical to fresh executions, generation
	// changes always invalidating, and cache-served certified envelopes
	// verifying under the subnet key.
	if agg.FleetServeChecks < 100 {
		t.Fatalf("only %d serving-layer check batches, want >= 100", agg.FleetServeChecks)
	}
	if agg.FleetGenMisses < 100 {
		t.Fatalf("only %d cross-generation invalidation checks, want >= 100", agg.FleetGenMisses)
	}
	if agg.FleetCertifiedHits != agg.FleetCertified {
		t.Fatalf("%d of %d certification checks re-verified the cache-served envelope",
			agg.FleetCertifiedHits, agg.FleetCertified)
	}
	if agg.FleetCacheHits == 0 {
		t.Fatal("the hot-response cache never served a hit across the battery")
	}
	// Pipelined-ingest dimension: the third canister must have been
	// verified byte-identical to the serial oracle at every step, with the
	// randomized worker counts actually spanning serial and parallel, and
	// parallel restores exercised mid-run.
	if agg.PipelinedChecks != agg.Steps {
		t.Fatalf("pipelined canister verified at %d of %d steps", agg.PipelinedChecks, agg.Steps)
	}
	if agg.PipelinedSerial == 0 || agg.PipelinedWorkerSum <= agg.PipelinedChecks {
		t.Fatalf("worker randomization degenerate: %d serial steps, worker sum %d over %d checks",
			agg.PipelinedSerial, agg.PipelinedWorkerSum, agg.PipelinedChecks)
	}
	if agg.PipelinedRestores < 20 {
		t.Fatalf("only %d parallel snapshot restores of the pipelined canister, want >= 20", agg.PipelinedRestores)
	}
}

// TestDifferentialPipelinedSingleProc repeats the pipelined-vs-serial
// exercise under GOMAXPROCS=1: the pipeline's goroutines interleave on one
// OS thread, the most adversarial schedule for ordering bugs, and results
// must stay byte-identical.
func TestDifferentialPipelinedSingleProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, seed := range []int64{6, 17} {
		cfg := DefaultConfig(seed)
		cfg.Steps = 60
		h := New(cfg)
		stats, err := h.Run()
		if err != nil {
			t.Fatal(err)
		}
		if stats.PipelinedChecks != stats.Steps {
			t.Fatalf("seed %d: pipelined verified at %d of %d steps", seed, stats.PipelinedChecks, stats.Steps)
		}
	}
}

// TestDifferentialSnapshotEveryStep restarts the overlay canister from its
// snapshot on every single step — the most hostile restore cadence — and
// still requires byte-identical answers against the never-restarted oracle.
func TestDifferentialSnapshotEveryStep(t *testing.T) {
	for _, seed := range []int64{4, 9, 25} {
		cfg := DefaultConfig(seed)
		cfg.SnapshotEvery = 1
		cfg.Steps = 60
		h := New(cfg)
		stats, err := h.Run()
		if err != nil {
			t.Fatal(err)
		}
		if stats.SnapshotRestores != stats.Steps {
			t.Fatalf("seed %d: %d restores over %d steps, want one per step", seed, stats.SnapshotRestores, stats.Steps)
		}
	}
}

// TestDifferentialLossyLink runs the same seeded workload twice — once with
// payloads fed directly, once routed through a simnet link that drops,
// duplicates, and reorders under a stop-and-wait at-least-once resend — and
// requires the two runs' final overlay snapshots to be byte-identical. The
// full per-step differential checks (overlay vs replay, pipelined, fleet)
// run inside the lossy pass too, so a transport fault surfacing as a
// dropped, double-applied, or reordered payload is caught at the step it
// happens, not just at the end. The stats assertions pin that the degraded
// link actually degraded: a retransmit-free run would prove nothing.
func TestDifferentialLossyLink(t *testing.T) {
	for _, seed := range []int64{3, 12, 31} {
		clean := New(DefaultConfig(seed))
		if _, err := clean.Run(); err != nil {
			t.Fatal(err)
		}
		want, err := clean.OverlaySnapshot()
		if err != nil {
			t.Fatal(err)
		}

		cfg := DefaultConfig(seed)
		cfg.LossyLink = true
		lossy := New(cfg)
		stats, err := lossy.Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := lossy.OverlaySnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || string(want) != string(got) {
			t.Fatalf("seed %d: lossy-transport run diverged from the direct run: %d vs %d snapshot bytes",
				seed, len(got), len(want))
		}
		if stats.LinkRetransmits == 0 {
			t.Fatalf("seed %d: the lossy link never forced a retransmit; loss not exercised", seed)
		}
		if stats.LinkStaleDrops == 0 {
			t.Fatalf("seed %d: the receiver never deduplicated a payload; duplication not exercised", seed)
		}
		t.Logf("seed %d: %d retransmits, %d dup/stale drops over %d blocks, state byte-identical",
			seed, stats.LinkRetransmits, stats.LinkStaleDrops, stats.BlocksMined)
	}
}

// TestProbesCoverRegistryQuery asserts the differential probe set covers
// exactly the canister registry's read-only methods: every query method is
// probed (a registry addition without a probe fails here), and no probe
// targets a method the registry does not serve as a query.
func TestProbesCoverRegistryQuery(t *testing.T) {
	h := New(DefaultConfig(1))
	probed := make(map[string]bool)
	for _, p := range h.probeSpecs() {
		probed[p.method] = true
	}
	for _, name := range canister.QueryMethodNames() {
		if !probed[name] {
			t.Errorf("registry query method %q has no differential probe", name)
		}
	}
	for name := range probed {
		m, ok := canister.MethodByName(name)
		if !ok {
			t.Errorf("probe targets %q, which is not in the method registry", name)
			continue
		}
		if m.Kind != canister.MethodReadOnly {
			t.Errorf("probe targets %q, which the registry does not serve as a query", name)
		}
	}
}

// TestDifferentialServeLayersOff pins the plain routing path: with the
// serving layers disabled the harness must still pass, and the layer
// counters must stay at zero.
func TestDifferentialServeLayersOff(t *testing.T) {
	cfg := DefaultConfig(19)
	cfg.ServeLayers = false
	cfg.Steps = 60
	h := New(cfg)
	stats, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.FleetServeChecks != 0 || stats.FleetCacheHits != 0 || stats.FleetCoalesced != 0 {
		t.Fatalf("serving layers were exercised while disabled: %+v", stats)
	}
}

// TestDifferentialFrameFaults corrupts the fleet's delta stream (seeded
// bit-flips, truncations, duplications, drops) and requires every fault to be
// detected and healed by automatic re-hydration: the per-class detection
// counters and the resync counter must be nonzero, and the history checks
// inside Run fail the test if any corrupted frame is ever silently applied.
// ServeLayers and certification are off — those checks assume replicas only
// lag by the harness's own choice, not by dropped frames.
func TestDifferentialFrameFaults(t *testing.T) {
	for _, seed := range []int64{5, 17, 29} {
		cfg := DefaultConfig(seed)
		cfg.FrameFaults = true
		cfg.ServeLayers = false
		cfg.CertifyEvery = 0
		stats, err := New(cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		detected := stats.FleetFrameCorrupt + stats.FleetFrameGaps + stats.FleetFrameDuplicates
		if detected == 0 {
			t.Fatalf("seed %d: corruption injection never tripped a detector: %+v", seed, stats)
		}
		if stats.FleetResyncs == 0 {
			t.Fatalf("seed %d: detected corruption never forced a re-hydration: %+v", seed, stats)
		}
		t.Logf("seed %d: corrupt=%d gaps=%d dups=%d resyncs=%d",
			seed, stats.FleetFrameCorrupt, stats.FleetFrameGaps, stats.FleetFrameDuplicates, stats.FleetResyncs)
	}
}

// TestDifferentialLargerDelta repeats the exercise with a deeper stability
// threshold so reorgs reach depths the regtest default cannot.
func TestDifferentialLargerDelta(t *testing.T) {
	for _, seed := range []int64{7, 11} {
		cfg := DefaultConfig(seed)
		cfg.Delta = 12
		cfg.Steps = 60
		h := New(cfg)
		if _, err := h.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
