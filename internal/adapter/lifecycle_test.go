package adapter

import (
	"fmt"
	"testing"
	"time"

	"icbtc/internal/btc"
	"icbtc/internal/btcnode"
	"icbtc/internal/simnet"
)

// bareAdapter builds an adapter with a hand-assembled directory and address
// book, no honest network behind it — for white-box lifecycle tests that
// drive the peer set directly.
func bareAdapter(seed int64, cfg Config, peers ...string) (*Adapter, *simnet.Scheduler, *btcnode.SeedDirectory) {
	sched := simnet.NewScheduler(seed)
	net := simnet.NewNetwork(sched)
	dir := btcnode.NewSeedDirectory()
	ad := New("adapter/bare", net, btc.RegtestParams(), dir, cfg)
	for _, p := range peers {
		dir.AddNode(p, simnet.NodeID(p))
		ad.addrSet[p] = true
		ad.addressBook = append(ad.addressBook, p)
	}
	return ad, sched, dir
}

// TestAddressBookBoundedUnderGossipFlood: a flood of bogus addresses can
// churn other bogus (dead) entries but can neither grow the book past t_u
// nor displace the addresses of live peers.
func TestAddressBookBoundedUnderGossipFlood(t *testing.T) {
	h := newHarness(t, 30, 6) // AddrHighWater = 50
	h.ad.Start()
	h.run(5 * time.Second)
	if len(h.ad.ConnectedPeers()) != 3 {
		t.Fatalf("setup: %d peers", len(h.ad.ConnectedPeers()))
	}
	peer := h.ad.ConnectedPeers()[0]
	for wave := 0; wave < 40; wave++ {
		addrs := make([]string, 25)
		for j := range addrs {
			addrs[j] = fmt.Sprintf("bogus-%d-%d", wave, j)
		}
		h.ad.Receive(peer, btcnode.MsgAddr{Addrs: addrs})
	}
	if got := h.ad.AddressBookSize(); got > 50 {
		t.Fatalf("gossip flood grew the book to %d (cap 50)", got)
	}
	// Every live node's address must have survived the flood.
	for _, n := range h.sim.Nodes {
		if !h.ad.addrSet[string(n.ID)] {
			t.Fatalf("flood evicted live peer %s from the book", n.ID)
		}
	}
	h.run(time.Minute) // and the adapter still operates
	if len(h.ad.ConnectedPeers()) != 3 {
		t.Fatal("connections lost after flood")
	}
	// Eviction makes room: a newly learned LIVE address still enters the
	// full book by displacing a dead (bogus) entry.
	h.sim.Directory.AddNode("late-joiner", "btc/late")
	h.ad.Receive(peer, btcnode.MsgAddr{Addrs: []string{"late-joiner"}})
	if !h.ad.addrSet["late-joiner"] {
		t.Fatal("full book rejected a live address instead of evicting a dead one")
	}
	if got := h.ad.AddressBookSize(); got > 50 {
		t.Fatalf("book grew past cap: %d", got)
	}
}

// TestFillConnectionsDeprioritizesTimeoutProne: the acceptance check that a
// peer with repeated timeouts is demonstrably never drawn while healthy
// candidates remain, yet stays usable as the pool of last resort.
func TestFillConnectionsDeprioritizesTimeoutProne(t *testing.T) {
	cfg := ConfigForNetwork(btc.Regtest)
	cfg.Connections = 3
	ad, _, _ := bareAdapter(5, cfg, "btc/0", "btc/1", "btc/2", "btc/bad")
	for i := 0; i < 4; i++ {
		ad.chargeTimeout("btc/bad")
	}
	if ad.PeerScore("btc/bad") <= ad.PeerScore("btc/0") {
		t.Fatal("timeouts did not raise the score")
	}
	for trial := 0; trial < 100; trial++ {
		ad.connected = map[simnet.NodeID]bool{}
		ad.fillConnections()
		if len(ad.connected) != 3 {
			t.Fatalf("filled %d connections", len(ad.connected))
		}
		if ad.connected["btc/bad"] {
			t.Fatalf("trial %d: timeout-prone peer drawn while 3 healthy peers were available", trial)
		}
	}
	// With no healthy alternative the degraded peer is still usable.
	ad.cfg.Connections = 4
	ad.fillConnections()
	if !ad.connected["btc/bad"] {
		t.Fatal("timeout-prone peer unusable as last resort")
	}
}

// TestPeerBanAndCooldown: crossing the ban score drops the connection, puts
// the peer on the cooldown list, excludes it from refills, and lets it back
// in after the cooldown.
func TestPeerBanAndCooldown(t *testing.T) {
	cfg := ConfigForNetwork(btc.Regtest)
	cfg.Connections = 2
	ad, sched, _ := bareAdapter(7, cfg, "btc/0", "btc/1", "btc/bad")
	ad.Start()
	ad.connected = map[simnet.NodeID]bool{"btc/bad": true, "btc/0": true}

	for i := 0; i < peerBanScore; i++ {
		ad.chargeTimeout("btc/bad")
	}
	if !ad.PeerBanned("btc/bad") {
		t.Fatal("peer not banned at the threshold")
	}
	if ad.connected["btc/bad"] {
		t.Fatal("banned peer still connected")
	}
	// The refill triggered by the ban-drop chose the healthy candidate.
	if !ad.connected["btc/1"] || len(ad.connected) != 2 {
		t.Fatalf("refill after ban wrong: %v", ad.ConnectedPeers())
	}
	// Counters reset with the ban: the cooldown IS the penalty.
	if got := ad.PeerScore("btc/bad"); got != 0 {
		t.Fatalf("score after ban %v, want 0 (reset)", got)
	}
	// Cooldown expiry re-admits the peer.
	sched.RunFor(peerCooldown + time.Second)
	if ad.PeerBanned("btc/bad") {
		t.Fatal("ban did not expire")
	}
	ad.cfg.Connections = 3
	ad.fillConnections()
	if !ad.connected["btc/bad"] {
		t.Fatal("recovered peer not re-admitted")
	}
}

// TestStallDetectorFlipsDegraded: the acceptance check that the adapter
// reports Degraded within one sync interval of the stall becoming
// detectable, and recovers as soon as any peer responds after heal.
func TestStallDetectorFlipsDegraded(t *testing.T) {
	h := newHarness(t, 31, 5)
	h.ad.Start()
	h.run(10 * time.Second)
	if st := h.ad.Health().State; st != StateSyncing {
		t.Fatalf("healthy adapter reports %v", st)
	}

	// Total stall: every peer goes dark at once.
	h.net.SetPartition(h.ad.ID, "dark")
	stallStart := h.sched.Now()
	h.run(stallTimeout + 2*syncInterval)
	health := h.ad.Health()
	if health.State != StateDegraded {
		t.Fatalf("adapter not degraded %v after total stall", h.sched.Now().Sub(stallStart))
	}
	// The self-report is carried on responses to the canister.
	resp := h.ad.HandleRequest(Request{Anchor: h.params.GenesisHeader, AnchorHeight: 0})
	if resp.Health.State != StateDegraded {
		t.Fatalf("response carries health %v, want degraded", resp.Health.State)
	}
	if resp.Health.Peers == 0 {
		t.Fatal("peer count missing from health report")
	}

	// Heal: the first response flips the adapter back.
	h.net.HealPartitions()
	h.run(2*syncInterval + time.Second)
	if st := h.ad.Health().State; st != StateSyncing {
		t.Fatalf("adapter stuck degraded after heal: %v", st)
	}
}

// TestDegradedRecoveryRekicksPendingBlocks: backoff clocks that grew long
// during a stall must not delay the fetch after heal — leaving the degraded
// state resets every pending request's lifecycle and re-issues it.
func TestDegradedRecoveryRekicksPendingBlocks(t *testing.T) {
	h := newHarness(t, 32, 5)
	blocks, err := h.miner.MineChain(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.sim.SyncAll(500_000); err != nil {
		t.Fatal(err)
	}
	h.ad.Start()
	h.run(10 * time.Second)
	hash := blocks[0].BlockHash()
	if !h.ad.HasBlock(hash) {
		// ensure header synced at least
		if !h.ad.Tree().Contains(hash) {
			t.Fatal("header never synced")
		}
	}

	// Partition, then request a second mined block during the blackout: the
	// request's backoff doubles while nothing can get through.
	h.net.SetPartition(h.ad.ID, "dark")
	more, err := h.miner.MineChain(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.sim.SyncAll(500_000); err != nil {
		t.Fatal(err)
	}
	wanted := more[0].BlockHash()
	h.ad.tree.Insert(more[0].Header)
	if b := h.ad.getBlock(wanted); b != nil {
		t.Fatal("block cannot be fetchable during the partition")
	}
	h.run(2 * time.Minute) // retries back off: 10,20,40,80s all swallowed
	if !h.ad.Degraded() {
		t.Fatal("adapter not degraded during long partition")
	}
	if h.ad.HasBlock(wanted) {
		t.Fatal("block crossed the partition")
	}

	h.net.HealPartitions()
	// Recovery re-kick: the block must arrive within a couple of sync
	// intervals, not after the grown (up to 80 s) backoff expires.
	h.run(3*syncInterval + time.Second)
	if !h.ad.HasBlock(wanted) {
		t.Fatal("pending block not re-kicked after recovery")
	}
}
