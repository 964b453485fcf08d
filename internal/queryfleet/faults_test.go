package queryfleet_test

import (
	"bytes"
	"testing"

	"icbtc/internal/canister"
	"icbtc/internal/chaos"
	"icbtc/internal/ic"
	"icbtc/internal/queryfleet"
	"icbtc/internal/simnet"
)

// replicaBalance reads the balance directly from one replica (bypassing
// routing, which would skip broken replicas or round-robin away).
func replicaBalance(t *testing.T, r *rig, i int) int64 {
	t.Helper()
	ctx := ic.NewCallContext(ic.KindQuery, r.now)
	v, err := r.fleet.Replica(i).Canister().GetBalance(ctx, canister.GetBalanceArgs{Address: r.addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFrameCorruptionAutoResync bit-flips a delivered frame: the statecodec
// checksum must reject it, and the replica must come back by re-hydration,
// byte-identical to the authority — no quarantine, no operator action.
func TestFrameCorruptionAutoResync(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 1
	r := newRig(t, cfg, 6)

	r.fleet.SetFrameFault(func(replica int, seq uint64, raw []byte) [][]byte {
		cp := append([]byte(nil), raw...)
		cp[len(cp)/2] ^= 0x40
		return [][]byte{cp}
	})
	r.feedBlock()
	r.fleet.SetFrameFault(nil)

	if err := r.fleet.CatchUpAll(); err != nil {
		t.Fatalf("auto-resync should swallow the corruption, got %v", err)
	}
	st := r.fleet.Stats()
	if st.FrameCorrupt == 0 {
		t.Fatalf("bit-flip not detected: %+v", st)
	}
	if st.Resyncs == 0 {
		t.Fatalf("detection did not trigger a resync: %+v", st)
	}
	if r.fleet.Replica(0).Broken() {
		t.Fatal("replica left quarantined after its resync")
	}
	if got, want := replicaBalance(t, r, 0), r.authBalance(); got != want {
		t.Fatalf("recovered replica balance %d, authoritative %d", got, want)
	}
}

// TestFrameGapAutoResync drops a frame: the next frame's sequence check must
// flag the hole and re-hydration must close it.
func TestFrameGapAutoResync(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 1
	r := newRig(t, cfg, 6)

	r.fleet.SetFrameFault(func(replica int, seq uint64, raw []byte) [][]byte { return nil })
	r.feedBlock() // dropped
	r.fleet.SetFrameFault(nil)
	r.feedBlock() // arrives with a one-frame hole before it

	if err := r.fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	st := r.fleet.Stats()
	if st.FrameGaps == 0 {
		t.Fatalf("sequence gap not detected: %+v", st)
	}
	if st.Resyncs == 0 {
		t.Fatalf("gap did not trigger a resync: %+v", st)
	}
	if got, want := replicaBalance(t, r, 0), r.authBalance(); got != want {
		t.Fatalf("recovered replica balance %d, authoritative %d", got, want)
	}
}

// TestFrameDuplicateSkipped re-delivers a frame: the duplicate must be
// skipped as benign — counted, state unharmed, and no resync spent on it.
func TestFrameDuplicateSkipped(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 1
	r := newRig(t, cfg, 6)

	r.fleet.SetFrameFault(func(replica int, seq uint64, raw []byte) [][]byte {
		return [][]byte{raw, raw}
	})
	r.feedBlock()
	r.fleet.SetFrameFault(nil)

	if err := r.fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	st := r.fleet.Stats()
	if st.FrameDuplicates == 0 {
		t.Fatalf("duplicate not counted: %+v", st)
	}
	if st.Resyncs != 0 {
		t.Fatalf("benign duplicate burned a resync: %+v", st)
	}
	if got, want := replicaBalance(t, r, 0), r.authBalance(); got != want {
		t.Fatalf("replica balance %d after duplicate, authoritative %d", got, want)
	}
}

// TestFrameSwapDetected delivers clean bytes in the wrong stream slot (two
// frames with their payloads exchanged): the embedded-sequence check must
// reject them even though every checksum verifies.
func TestFrameSwapDetected(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 1
	r := newRig(t, cfg, 6)

	var held []byte
	r.fleet.SetFrameFault(func(replica int, seq uint64, raw []byte) [][]byte {
		if held == nil {
			// Hold the first frame back and deliver it in the second
			// frame's slot instead.
			held = append([]byte(nil), raw...)
			return nil
		}
		out := [][]byte{held, raw}
		held = nil
		return out
	})
	r.feedBlock()
	r.feedBlock()
	r.fleet.SetFrameFault(nil)

	if err := r.fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	st := r.fleet.Stats()
	if st.FrameCorrupt == 0 {
		t.Fatalf("slot/seq mismatch not detected: %+v", st)
	}
	if got, want := replicaBalance(t, r, 0), r.authBalance(); got != want {
		t.Fatalf("recovered replica balance %d, authoritative %d", got, want)
	}
}

// certRig is a rig whose fleet signs responses with a real threshold
// committee and audits them against the subnet's public key.
func newCertRig(t *testing.T, replicas int, maxLag int64) (*rig, *ic.Subnet) {
	t.Helper()
	subnet, sign, verify, err := chaos.Committee(simnet.NewScheduler(17), 17)
	if err != nil {
		t.Fatal(err)
	}
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = replicas
	cfg.MaxLagBlocks = maxLag
	r := newRig(t, cfg, 8)
	r.fleet.SetSigner(sign)
	r.fleet.SetVerifier(verify)
	return r, subnet
}

// TestByzantineTamperEjected makes one replica tamper with its certified
// envelope after signing. The audit must catch the broken signature, eject
// the replica, and keep serving correct certified answers from the honest
// one — the client never sees the equivocation.
func TestByzantineTamperEjected(t *testing.T) {
	r, subnet := newCertRig(t, 2, 3)
	if err := r.fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	r.fleet.SetResponseFault(chaos.TamperLiar(0))

	want := r.authBalance()
	args := canister.GetBalanceArgs{Address: r.addr.String()}
	for i := 0; i < 4; i++ { // enough round-robin picks to hit the liar
		rq := r.fleet.RouteQuery("get_balance", args, "client", r.now)
		if rq.Err != nil {
			t.Fatalf("query %d: %v", i, rq.Err)
		}
		if rq.Value.(int64) != want {
			t.Fatalf("query %d served %d, authoritative %d", i, rq.Value, want)
		}
		if err := chaos.CheckCertified(subnet, "get_balance", rq); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if !r.fleet.Replica(0).Broken() {
		t.Fatal("tampering replica was never ejected")
	}
	if r.fleet.Replica(1).Broken() {
		t.Fatal("honest replica was ejected")
	}
	if r.fleet.Stats().ByzantineEjected == 0 {
		t.Fatal("ejection not counted")
	}
	// Recovery: re-hydration clears the quarantine once the fault is gone.
	r.fleet.SetResponseFault(nil)
	if err := r.fleet.HydrateReplica(0); err != nil {
		t.Fatal(err)
	}
	if r.fleet.Replica(0).Broken() {
		t.Fatal("re-hydration did not clear the quarantine")
	}
}

// TestByzantineStaleReplayEjected makes one replica replay its first signed
// envelope forever: the signature stays valid, so only the audit's
// generation bound can catch it once the chain outruns MaxLagBlocks.
func TestByzantineStaleReplayEjected(t *testing.T) {
	r, _ := newCertRig(t, 2, 2)
	if err := r.fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	r.fleet.SetResponseFault(chaos.StaleReplayLiar(0))
	args := canister.GetBalanceArgs{Address: r.addr.String()}
	// Seed the replayed envelope while it is still fresh (passes the audit).
	for i := 0; i < 2; i++ {
		if rq := r.fleet.RouteQuery("get_balance", args, "client", r.now); rq.Err != nil {
			t.Fatal(rq.Err)
		}
	}
	// Move the chain past the lag bound; the replayed envelope's tip is now
	// too old for any honest fresh replica to have served it.
	for i := 0; i < 4; i++ {
		r.feedBlock()
	}
	if err := r.fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	want := r.authBalance()
	for i := 0; i < 4; i++ {
		rq := r.fleet.RouteQuery("get_balance", args, "client", r.now)
		if rq.Err != nil {
			t.Fatalf("query %d: %v", i, rq.Err)
		}
		if rq.Value.(int64) != want {
			t.Fatalf("query %d served %d, authoritative %d (stale replay leaked)", i, rq.Value, want)
		}
	}
	if !r.fleet.Replica(0).Broken() {
		t.Fatal("stale-replaying replica was never ejected")
	}
	if r.fleet.Stats().ByzantineEjected == 0 {
		t.Fatal("ejection not counted")
	}
}

// TestFeedAuthorityRegressionFlagsResync pins the torn-state interaction:
// when the authority recovers from an older checkpoint and its stream tip
// moves backwards, every replica must be flagged and re-hydrated instead of
// serving a future the authority no longer has.
func TestFeedAuthorityRegressionFlagsResync(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 2
	r := newRig(t, cfg, 6)
	for i := 0; i < 3; i++ {
		r.feedBlock()
	}
	if err := r.fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}

	// Simulate the authority rolling back: hand-feed a frame whose tip is
	// below the stream's high-water mark.
	r.fleet.Feed(&canister.Frame{TipHeight: r.f.Canister.TipHeight() - 2})
	if err := r.fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	if got := r.fleet.Stats().Resyncs; got != uint64(cfg.Replicas) {
		t.Fatalf("authority tip regression resynced %d replicas, want all %d", got, cfg.Replicas)
	}
	// Replicas landed on the (current) authority snapshot.
	want, err := r.f.Canister.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Replicas; i++ {
		got, err := r.fleet.Replica(i).Canister().Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("replica %d not byte-identical to the authority after regression resync", i)
		}
	}
}
