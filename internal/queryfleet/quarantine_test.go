package queryfleet

import (
	"errors"
	"testing"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/btcnode"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
	"icbtc/internal/simnet"
)

// TestReplicaQuarantineOnBadFrame: a frame that fails to decode is counted
// and healed by re-hydration on the spot — no error, no quarantine left
// behind, local serving continues. A manual Quarantine is the sticky case:
// application refuses and routing forwards to the authoritative canister
// (instead of certifying a possibly diverged state) until a re-hydration.
func TestReplicaQuarantineOnBadFrame(t *testing.T) {
	auth := canister.New(canister.DefaultConfig(btc.Regtest))
	fleet, err := New(auth, Config{Replicas: 1, MaxLagBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0).UTC()

	// A healthy replica serves.
	rq := fleet.RouteQuery("get_tip", nil, "c", now)
	if rq.Err != nil || rq.Forwarded {
		t.Fatalf("healthy replica: err=%v forwarded=%v", rq.Err, rq.Forwarded)
	}

	// Inject an undecodable frame: it is rejected and the replica resyncs.
	r := fleet.Replica(0)
	r.enqueue(&wireFrame{raw: []byte("not a frame")}, 1, time.Time{})
	if _, err := r.ApplyPending(-1); err != nil {
		t.Fatalf("bad frame not healed by resync: %v", err)
	}
	if st := fleet.Stats(); st.FrameCorrupt != 1 || st.Resyncs != 1 {
		t.Fatalf("bad frame: corrupt=%d resyncs=%d, want 1 and 1", st.FrameCorrupt, st.Resyncs)
	}
	if r.Broken() {
		t.Fatal("replica left quarantined after its resync")
	}
	rq = fleet.RouteQuery("get_tip", nil, "c", now)
	if rq.Err != nil || rq.Forwarded {
		t.Fatalf("resynced replica: err=%v forwarded=%v", rq.Err, rq.Forwarded)
	}

	// A manual quarantine sticks: application refuses until re-hydration.
	r.Quarantine()
	if _, err := r.ApplyPending(-1); err == nil {
		t.Fatal("quarantined replica kept applying frames")
	}
	if !r.Broken() {
		t.Fatal("ApplyPending lifted a manual quarantine")
	}

	// Routing skips the quarantined replica and forwards to the authority.
	rq = fleet.RouteQuery("get_tip", nil, "c", now)
	if rq.Err != nil {
		t.Fatal(rq.Err)
	}
	if !rq.Forwarded {
		t.Fatal("query was served by a quarantined replica")
	}

	// Re-hydration heals the replica; serving resumes locally.
	if err := fleet.HydrateReplica(0); err != nil {
		t.Fatal(err)
	}
	if r.Broken() {
		t.Fatal("re-hydration did not clear the quarantine")
	}
	rq = fleet.RouteQuery("get_tip", nil, "c", now)
	if rq.Err != nil || rq.Forwarded {
		t.Fatalf("healed replica: err=%v forwarded=%v", rq.Err, rq.Forwarded)
	}
}

// snapshotless is an authority whose Snapshot fails once fail is set.
type snapshotless struct {
	*canister.BitcoinCanister
	fail bool
}

func (a *snapshotless) Snapshot() ([]byte, error) {
	if a.fail {
		return nil, errors.New("snapshot unavailable")
	}
	return a.BitcoinCanister.Snapshot()
}

// TestFailedResyncStaysQuarantined: when the resync after a bad frame cannot
// get a snapshot, the replica stays Broken — ApplyPending reports the
// failure and keeps refusing, routing forwards — until a re-hydration
// succeeds.
func TestFailedResyncStaysQuarantined(t *testing.T) {
	auth := &snapshotless{BitcoinCanister: canister.New(canister.DefaultConfig(btc.Regtest))}
	fleet, err := New(auth, Config{Replicas: 1, MaxLagBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0).UTC()

	auth.fail = true
	r := fleet.Replica(0)
	r.enqueue(&wireFrame{raw: []byte("not a frame")}, 1, time.Time{})
	if _, err := r.ApplyPending(-1); err == nil {
		t.Fatal("resync without a snapshot reported success")
	}
	if !r.Broken() {
		t.Fatal("replica not quarantined after a failed resync")
	}
	if st := fleet.Stats(); st.FrameCorrupt != 1 || st.Resyncs != 0 {
		t.Fatalf("failed resync: corrupt=%d resyncs=%d, want 1 and 0", st.FrameCorrupt, st.Resyncs)
	}
	if _, err := r.ApplyPending(-1); err == nil {
		t.Fatal("quarantined replica kept applying frames")
	}
	if rq := fleet.RouteQuery("get_tip", nil, "c", now); rq.Err != nil || !rq.Forwarded {
		t.Fatalf("broken replica: err=%v forwarded=%v, want a forward", rq.Err, rq.Forwarded)
	}

	auth.fail = false
	if err := fleet.HydrateReplica(0); err != nil {
		t.Fatal(err)
	}
	if rq := fleet.RouteQuery("get_tip", nil, "c", now); rq.Err != nil || rq.Forwarded {
		t.Fatalf("healed replica: err=%v forwarded=%v", rq.Err, rq.Forwarded)
	}
}

// TestQuarantineStormRecovery: a bad frame on one replica heals by resync,
// then the watchdog quarantines every replica at once (a correlated fault),
// the stream keeps flowing while the fleet is dark, and the replicas are
// readmitted mid-stream. Throughout the storm the fleet must never serve a
// stale answer from a quarantined state (all traffic forwards to the fresh
// authority), and recovery must come from a current snapshot — not a frame
// replay from genesis.
func TestQuarantineStormRecovery(t *testing.T) {
	sched := simnet.NewScheduler(99)
	net := simnet.NewNetwork(sched)
	node := btcnode.NewNode("btc/0", net, btc.RegtestParams())
	miner := btcnode.NewMiner(node, btc.PayToPubKeyHashScript([20]byte{0x01}))

	auth := canister.New(canister.DefaultConfig(btc.Regtest))
	fleet, err := New(auth, Config{Replicas: 3, MaxLagBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}

	now := sched.Now()
	feed := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			blk, err := miner.Mine(0)
			if err != nil {
				t.Fatal(err)
			}
			now = now.Add(time.Second)
			payload := adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: blk, Header: blk.Header}}}
			if err := auth.ProcessPayload(ic.NewCallContext(ic.KindUpdate, now), payload); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Healthy baseline: 10 blocks, everyone caught up, local serving.
	feed(10)
	if err := fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	rq := fleet.RouteQuery("get_tip", nil, "c", now)
	if rq.Err != nil || rq.Forwarded {
		t.Fatalf("baseline: err=%v forwarded=%v", rq.Err, rq.Forwarded)
	}

	// Replica 0 hits a real poison frame and resyncs on its own.
	r0 := fleet.Replica(0)
	r0.enqueue(&wireFrame{raw: []byte("poison")}, r0.Seq()+1, time.Time{})
	if _, err := r0.ApplyPending(-1); err != nil {
		t.Fatalf("poison frame not healed by resync: %v", err)
	}
	if st := fleet.Stats(); st.FrameCorrupt != 1 || st.Resyncs != 1 {
		t.Fatalf("poison frame: corrupt=%d resyncs=%d, want 1 and 1", st.FrameCorrupt, st.Resyncs)
	}
	if r0.Broken() || r0.Seq() != fleet.LastSeq() {
		t.Fatalf("resynced replica: broken=%v seq %d, want %d", r0.Broken(), r0.Seq(), fleet.LastSeq())
	}

	// The storm: the watchdog pulls all three.
	for i := 0; i < fleet.Replicas(); i++ {
		fleet.Replica(i).Quarantine()
	}

	// The chain keeps growing while the fleet is dark. Every query must
	// forward to the authority and reflect its FRESH tip — a stale answer
	// from a quarantined replica here would certify a diverged state.
	feed(5)
	for probe := 0; probe < 6; probe++ {
		rq = fleet.RouteQuery("get_tip", nil, "c", now)
		if rq.Err != nil {
			t.Fatal(rq.Err)
		}
		if !rq.Forwarded {
			t.Fatalf("probe %d: query served by a quarantined replica", probe)
		}
		if got, want := rq.Value.(btc.Hash), node.BestTip().Hash; got != want {
			t.Fatalf("probe %d: forwarded answer is stale: tip %s, want %s", probe, got, want)
		}
		if rq.TipHeight != auth.TipHeight() {
			t.Fatalf("probe %d: certified tip height %d, want authoritative %d", probe, rq.TipHeight, auth.TipHeight())
		}
	}

	// Readmission mid-stream: each replica re-hydrates from a snapshot taken
	// at the CURRENT stream position. Seq jumps straight to the fleet's last
	// distributed frame with nothing left to replay — the signature of
	// snapshot recovery, not a genesis replay.
	for i := 0; i < fleet.Replicas(); i++ {
		if err := fleet.HydrateReplica(i); err != nil {
			t.Fatal(err)
		}
		r := fleet.Replica(i)
		if r.Broken() {
			t.Fatalf("replica %d still quarantined after re-hydration", i)
		}
		if r.Seq() != fleet.LastSeq() {
			t.Fatalf("replica %d at seq %d after re-hydration, want %d", i, r.Seq(), fleet.LastSeq())
		}
		if r.Pending() != 0 {
			t.Fatalf("replica %d has %d frames to replay after snapshot recovery", i, r.Pending())
		}
		if r.TipHeight() != auth.TipHeight() {
			t.Fatalf("replica %d tip %d after re-hydration, want %d", i, r.TipHeight(), auth.TipHeight())
		}
	}

	// Local serving resumes, and the next frame applies cleanly everywhere.
	rq = fleet.RouteQuery("get_tip", nil, "c", now)
	if rq.Err != nil || rq.Forwarded {
		t.Fatalf("post-recovery: err=%v forwarded=%v", rq.Err, rq.Forwarded)
	}
	feed(1)
	if err := fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fleet.Replicas(); i++ {
		if got, want := fleet.Replica(i).TipHeight(), auth.TipHeight(); got != want {
			t.Fatalf("replica %d tip %d after post-recovery frame, want %d", i, got, want)
		}
	}
}
