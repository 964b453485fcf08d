package adapter

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"icbtc/internal/btc"
	"icbtc/internal/btcnode"
	"icbtc/internal/secp256k1"
	"icbtc/internal/simnet"
)

// Lemma IV.1 on the real adapter: the discovery process runs against a
// directory that mixes honest and adversarial (silent) Bitcoin nodes.

// buildMixedNetwork returns a network with honest and silent-adversarial
// nodes all registered in one directory.
func buildMixedNetwork(t *testing.T, seed int64, honest, adversarial int) (*simnet.Scheduler, *simnet.Network, *btcnode.SimNetwork) {
	t.Helper()
	sched := simnet.NewScheduler(seed)
	net := simnet.NewNetwork(sched)
	params := btc.RegtestParams()
	sim := btcnode.BuildHonestNetwork(net, params, honest)
	sim.AddAdversaries(adversarial)
	for _, adv := range sim.Adversaries {
		adv.Behave(btcnode.Silent)
	}
	return sched, net, sim
}

func TestAdapterSyncsDespiteSilentAdversaries(t *testing.T) {
	// 60% of the node population is adversarial and silent; with ℓ=5 the
	// adapter keeps at least one honest connection w.h.p. and still syncs.
	sched, net, sim := buildMixedNetwork(t, 51, 4, 6)
	key, _ := secp256k1.GeneratePrivateKey(rand.New(rand.NewSource(51)))
	miner := btcnode.NewMinerWithKey(sim.Nodes[0], key)
	if _, err := miner.MineChain(5, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.SyncAll(1_000_000); err != nil {
		t.Fatal(err)
	}

	cfg := ConfigForNetwork(btc.Regtest)
	cfg.Connections = 5
	cfg.AddrLowWater, cfg.AddrHighWater = 1, 50
	ad := New("adapter/e", net, btc.RegtestParams(), sim.Directory, cfg)
	ad.Start()
	sched.RunFor(2 * time.Minute)

	honestConns := 0
	for _, p := range ad.ConnectedPeers() {
		isAdv := false
		for _, adv := range sim.Adversaries {
			if adv.Node.ID == p {
				isAdv = true
			}
		}
		if !isAdv {
			honestConns++
		}
	}
	if honestConns == 0 {
		t.Fatalf("all %d connections adversarial at the fixed seed: the test no longer exercises sync", len(ad.ConnectedPeers()))
	}
	if got := ad.Tree().MaxHeight(); got != 5 {
		t.Fatalf("adapter synced to %d with %d honest connections", got, honestConns)
	}
}

func TestDropConnectionDoesNotRepickDroppedPeer(t *testing.T) {
	// Regression: DropConnection used to refill from the whole book, so the
	// just-dropped peer could be re-picked immediately — with ℓ=1 and a
	// two-node book about half the time, which defeats the rotation that
	// eclipse recovery (and the ϕ^ℓ analysis) relies on. Across 40 seeds a
	// surviving re-pick bug fails with probability 1 − 2⁻⁴⁰.
	for trial := 0; trial < 40; trial++ {
		sched := simnet.NewScheduler(int64(3000 + trial))
		net := simnet.NewNetwork(sched)
		sim := btcnode.BuildHonestNetwork(net, btc.RegtestParams(), 2)
		cfg := ConfigForNetwork(btc.Regtest)
		cfg.Connections = 1
		cfg.AddrLowWater, cfg.AddrHighWater = 1, 10
		ad := New(simnet.NodeID(fmt.Sprintf("adapter/d%d", trial)), net, btc.RegtestParams(), sim.Directory, cfg)
		ad.Start()
		sched.RunFor(5 * time.Second)
		peers := ad.ConnectedPeers()
		if len(peers) != 1 {
			t.Fatalf("trial %d: %d connections, want 1", trial, len(peers))
		}
		dropped := peers[0]
		ad.DropConnection(dropped)
		peers = ad.ConnectedPeers()
		if len(peers) != 1 {
			t.Fatalf("trial %d: refill left %d connections, want 1", trial, len(peers))
		}
		if peers[0] == dropped {
			t.Fatalf("trial %d: refill re-picked the just-dropped peer %s", trial, dropped)
		}
	}
}

func TestDropConnectionFallsBackToSoleCandidate(t *testing.T) {
	// When the dropped peer is the only node in the book, excluding it would
	// leave the adapter dark; the refill must fall back to reconnecting.
	sched := simnet.NewScheduler(7)
	net := simnet.NewNetwork(sched)
	sim := btcnode.BuildHonestNetwork(net, btc.RegtestParams(), 1)
	cfg := ConfigForNetwork(btc.Regtest)
	cfg.Connections = 1
	cfg.AddrLowWater, cfg.AddrHighWater = 1, 10
	ad := New("adapter/sole", net, btc.RegtestParams(), sim.Directory, cfg)
	ad.Start()
	sched.RunFor(5 * time.Second)
	peers := ad.ConnectedPeers()
	if len(peers) != 1 {
		t.Fatalf("%d connections, want 1", len(peers))
	}
	ad.DropConnection(peers[0])
	now := ad.ConnectedPeers()
	if len(now) != 1 || now[0] != peers[0] {
		t.Fatalf("sole-candidate refill got %v, want reconnect to %s", now, peers[0])
	}
}

func TestAdapterEclipseFrequencyMatchesPhiToTheL(t *testing.T) {
	// Run the real discovery process across many seeds and compare the
	// all-adversarial-connection frequency with ϕ^ℓ for each ℓ, on the same
	// seeds. Small ℓ keeps the probability measurable with few trials.
	const (
		honest      = 5
		adversarial = 5 // ϕ = 0.5
		phi         = 0.5
		trials      = 120
	)
	prev := 1.0
	for l := 1; l <= 3; l++ {
		eclipsed := 0
		for trial := 0; trial < trials; trial++ {
			sched, net, sim := buildMixedNetwork(t, int64(1000+trial), honest, adversarial)
			cfg := ConfigForNetwork(btc.Regtest)
			cfg.Connections = l
			cfg.AddrLowWater, cfg.AddrHighWater = 1, 50
			ad := New(simnet.NodeID(fmt.Sprintf("adapter/t%d", trial)), net, btc.RegtestParams(), sim.Directory, cfg)
			ad.Start()
			sched.RunFor(10 * time.Second)
			advSet := map[simnet.NodeID]bool{}
			for _, adv := range sim.Adversaries {
				advSet[adv.Node.ID] = true
			}
			peers := ad.ConnectedPeers()
			all := len(peers) > 0
			for _, p := range peers {
				if !advSet[p] {
					all = false
				}
			}
			if all {
				eclipsed++
			}
		}
		freq := float64(eclipsed) / float64(trials)
		want := math.Pow(phi, float64(l))
		se := math.Sqrt(want * (1 - want) / trials)
		if math.Abs(freq-want) > 3*se {
			t.Errorf("ℓ=%d: eclipse frequency %.3f outside 3 standard errors (%.3f) of ϕ^ℓ = %.3f", l, freq, se, want)
		}
		if freq >= prev {
			t.Errorf("ℓ=%d: eclipse frequency %.3f did not fall below ℓ=%d's %.3f", l, freq, l-1, prev)
		}
		prev = freq
	}
}
