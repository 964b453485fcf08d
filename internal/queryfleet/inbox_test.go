package queryfleet

import (
	"bytes"
	"testing"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/btcnode"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
	"icbtc/internal/simnet"
)

// checkInboxVacated fails unless the inbox starts at the front of a backing
// array of capacity wantCap, and the array past its length holds only zero
// frames: a dequeued or dropped frame left there, or before the slice's
// start, would keep its wire bytes and its decode reachable until the array
// is reallocated.
func checkInboxVacated(t *testing.T, r *Replica, wantCap int, after string) {
	t.Helper()
	r.inboxMu.Lock()
	defer r.inboxMu.Unlock()
	if cap(r.inbox) != wantCap {
		t.Fatalf("after %s: inbox capacity %d, want %d: the live frames left the front of the array", after, cap(r.inbox), wantCap)
	}
	for i, f := range r.inbox[len(r.inbox):cap(r.inbox)] {
		if f != (pendingFrame{}) {
			t.Fatalf("after %s: inbox slot %d past its %d live frames still holds frame %d",
				after, len(r.inbox)+i, len(r.inbox), f.seq)
		}
	}
}

// TestInboxReleasesDequeuedFrames: neither a hydration that drops the frames
// its snapshot covers nor an apply that dequeues a batch leaves those frames
// in the inbox's backing array, and the frames kept still apply in order.
func TestInboxReleasesDequeuedFrames(t *testing.T) {
	sched := simnet.NewScheduler(5)
	miner := btcnode.NewMiner(btcnode.NewNode("btc/0", simnet.NewNetwork(sched), btc.RegtestParams()),
		btc.PayToPubKeyHashScript([20]byte{0x01}))
	auth := canister.New(canister.DefaultConfig(btc.Regtest))
	fleet, err := New(auth, Config{Replicas: 1, MaxLagBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
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
	r := fleet.Replica(0)

	feed(2)
	atTwo, err := auth.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	feed(3)
	if n := r.Pending(); n != 5 {
		t.Fatalf("%d frames queued, want 5", n)
	}
	if err := r.Hydrate(atTwo, 2); err != nil {
		t.Fatal(err)
	}
	if n := r.Pending(); n != 3 {
		t.Fatalf("%d frames kept past a hydration at frame 2, want 3", n)
	}
	r.inboxMu.Lock()
	capacity := cap(r.inbox)
	r.inboxMu.Unlock()
	checkInboxVacated(t, r, capacity, "a hydration")

	if n, err := r.ApplyPending(2); err != nil || n != 2 {
		t.Fatalf("applied %d frames (%v), want 2", n, err)
	}
	checkInboxVacated(t, r, capacity, "an apply of two of three frames")
	if n, err := r.ApplyPending(-1); err != nil || n != 1 {
		t.Fatalf("applied %d frames (%v), want 1", n, err)
	}
	checkInboxVacated(t, r, capacity, "an apply of the last frame")

	want, err := auth.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Canister().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq() != 5 || !bytes.Equal(got, want) {
		t.Fatalf("replica at frame %d is not byte-identical to the authority", r.Seq())
	}
}
