package chaos

import (
	"fmt"
	"sort"
	"time"

	"icbtc/internal/ic"
	"icbtc/internal/simnet"
)

// Scenario is one named fault schedule. Step runs at the start of every
// harness round (before the round's block is mined) and injects or heals
// faults by reaching into the World.
type Scenario struct {
	Name        string
	Description string
	Step        func(w *World, round int) error
}

var registry = map[string]Scenario{}

// Register adds a scenario to the registry (panics on duplicates — the
// registry is assembled at init time).
func Register(s Scenario) {
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("chaos: duplicate scenario %q", s.Name))
	}
	registry[s.Name] = s
}

// Names returns all registered scenario names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lookup returns a scenario by name.
func Lookup(name string) (Scenario, bool) {
	s, ok := registry[name]
	return s, ok
}

// Fault schedule shape shared by the network scenarios: inject at round 5,
// heal at round 25, leaving 35 rounds to reconverge.
const (
	injectRound = 5
	healRound   = 25
)

// rotateOutAdversaries drops every adversarial connection, one per call
// site round, letting the low-water refill (which excludes the dropped
// peer) rotate honest peers back in.
func rotateOutAdversaries(w *World) {
	for _, p := range w.Adapter.ConnectedPeers() {
		if w.IsAdversary(p) {
			w.Adapter.DropConnection(p)
		}
	}
}

// adversaryIDs returns the IDs of all adversarial nodes.
func adversaryIDs(w *World) []simnet.NodeID {
	ids := make([]simnet.NodeID, 0, len(w.Sim.Adversaries))
	for _, adv := range w.Sim.Adversaries {
		ids = append(ids, adv.Node.ID)
	}
	return ids
}

func init() {
	Register(Scenario{
		Name: "eclipse",
		Description: "adapter's whole peer set replaced by silent adversaries; " +
			"heals by rotating peers out through DropConnection",
		Step: func(w *World, round int) error {
			switch {
			case round == 0:
				for _, adv := range w.Sim.Adversaries {
					adv.SetSilent(true)
				}
			case round == injectRound:
				w.EclipseAdapter(adversaryIDs(w))
			case round >= healRound:
				w.SetHealed(healRound)
				rotateOutAdversaries(w)
			}
			return nil
		},
	})

	Register(Scenario{
		Name: "partition",
		Description: "adapter partitioned away from the whole Bitcoin network, " +
			"then the partition heals; in-flight block requests must be retried",
		Step: func(w *World, round int) error {
			switch round {
			case injectRound:
				w.Net.SetPartition(w.Adapter.ID, "dark")
			case healRound:
				w.Net.HealPartitions()
				w.SetHealed(healRound)
			}
			return nil
		},
	})

	Register(Scenario{
		Name: "withhold",
		Description: "adapter eclipsed by peers that announce headers but never " +
			"serve blocks (withholding); retry logic recovers the downloads after heal",
		Step: func(w *World, round int) error {
			switch {
			case round == 0:
				for _, adv := range w.Sim.Adversaries {
					adv.SetWithholdData(true)
				}
			case round == injectRound:
				w.EclipseAdapter(adversaryIDs(w))
			case round == healRound:
				for _, adv := range w.Sim.Adversaries {
					adv.SetWithholdData(false)
				}
				w.SetHealed(healRound)
			}
			return nil
		},
	})

	Register(Scenario{
		Name: "invalid-blocks",
		Description: "adapter eclipsed by peers serving blocks whose merkle root " +
			"does not cover their transactions; every one must be rejected",
		Step: func(w *World, round int) error {
			switch {
			case round == 0:
				for _, adv := range w.Sim.Adversaries {
					adv.SetCorruptBlocks(true)
				}
			case round == injectRound:
				w.EclipseAdapter(adversaryIDs(w))
			case round == healRound:
				for _, adv := range w.Sim.Adversaries {
					adv.SetCorruptBlocks(false)
				}
				w.SetHealed(healRound)
			}
			return nil
		},
	})

	Register(Scenario{
		Name: "stale-peers",
		Description: "adapter eclipsed by peers whose chain view froze at inject " +
			"time; they keep serving an ever-staler chain until thawed",
		Step: func(w *World, round int) error {
			switch round {
			case injectRound:
				for _, adv := range w.Sim.Adversaries {
					adv.SetFrozen(true)
				}
				w.EclipseAdapter(adversaryIDs(w))
			case healRound:
				for _, adv := range w.Sim.Adversaries {
					adv.SetFrozen(false)
				}
				w.SetHealed(healRound)
			}
			return nil
		},
	})

	Register(Scenario{
		Name: "deep-reorg",
		Description: "adversary mines a private fork branching below the δ-stable " +
			"anchor and feeds it to the adapter; the anchor must never roll back",
		Step: func(w *World, round int) error {
			adv := w.Sim.Adversaries[0]
			switch round {
			case 10:
				// Branch two blocks BELOW the current anchor — deeper than δ —
				// and overtake the honest tip at fork time.
				anchor := w.Canister().AnchorHeight()
				target := anchor - 2
				if target < 0 {
					target = 0
				}
				honestTip := w.Sim.Nodes[0].BestTip()
				base := honestTip
				for base.Height > target {
					base = base.Parent()
				}
				length := int(honestTip.Height-base.Height) + 3
				if err := adv.MinePrivateFork(base.Hash, length, nil); err != nil {
					return fmt.Errorf("private fork: %w", err)
				}
				adv.SetServeForkOnly(true)
				w.Adapter.ConnectPeer(adv.Node.ID)
			case healRound:
				// The attack must actually have been delivered: the fork's
				// headers reached the adapter's tree (the canister then
				// refused to follow them — checked by anchor monotonicity
				// and oracle equivalence every round).
				tip := adv.ForkTip()
				if tip == nil || !w.Adapter.Tree().Contains(tip.Hash) {
					return fmt.Errorf("adversarial fork never reached the adapter's header tree")
				}
				adv.SetServeForkOnly(false)
				w.Adapter.Disconnect(adv.Node.ID)
				w.SetHealed(healRound)
			}
			return nil
		},
	})

	Register(Scenario{
		Name: "loss-ramp",
		Description: "message loss on every adapter link ramps from 15% to 55% " +
			"and back off; per-request retries with backoff keep the sync alive",
		Step: func(w *World, round int) error {
			switch {
			case round >= injectRound && round < healRound:
				// Re-install each round with the ramped rate; the profile is
				// pure loss, so reinstallation consumes no RNG draws.
				frac := float64(round-injectRound) / float64(healRound-1-injectRound)
				w.DegradeAdapterLinks(&simnet.LinkProfile{LossRate: 0.15 + 0.40*frac})
			case round == healRound:
				w.DegradeAdapterLinks(nil)
				w.SetHealed(healRound)
			}
			return nil
		},
	})

	Register(Scenario{
		Name: "latency-spike",
		Description: "adapter links suffer bufferbloat-style latency-spike storms " +
			"(25x delay episodes); slow-but-honest peers must not be banned",
		Step: func(w *World, round int) error {
			switch round {
			case injectRound:
				w.DegradeAdapterLinks(&simnet.LinkProfile{
					Latency:       simnet.LatencyModel{Base: 20 * time.Millisecond, Jitter: 30 * time.Millisecond},
					SpikeRate:     0.25,
					SpikeFactor:   25,
					SpikeDuration: 3 * time.Second,
				})
			case healRound:
				w.DegradeAdapterLinks(nil)
				w.SetHealed(healRound)
			}
			return nil
		},
	})

	Register(Scenario{
		Name: "flapping-links",
		Description: "every adapter link flaps on a ~1.2s cycle (down ~40% in " +
			"contiguous bursts); bursty loss must not wedge the block download",
		Step: func(w *World, round int) error {
			switch round {
			case injectRound:
				w.DegradeAdapterLinks(&simnet.LinkProfile{
					FlapPeriod: 1200 * time.Millisecond,
					FlapDown:   500 * time.Millisecond,
				})
			case healRound:
				w.DegradeAdapterLinks(nil)
				w.SetHealed(healRound)
			}
			return nil
		},
	})

	Register(Scenario{
		Name: "slow-drip",
		Description: "adapter eclipsed by slowloris peers that answer everything " +
			"30s late; deadline strikes must ban and rotate them out unaided",
		Step: func(w *World, round int) error {
			switch round {
			case 0:
				for _, adv := range w.Sim.Adversaries {
					adv.SetSlowDrip(30 * time.Second)
				}
			case injectRound:
				w.EclipseAdapter(adversaryIDs(w))
			case healRound:
				// Self-recovery assert: unlike the eclipse scenario, nothing
				// here rotates peers out for the adapter — the deadline→score→
				// ban lifecycle alone must have pulled honest peers back in.
				honest := 0
				for _, p := range w.Adapter.ConnectedPeers() {
					if !w.IsAdversary(p) {
						honest++
					}
				}
				if honest == 0 {
					return fmt.Errorf("no honest peer rotated in by the heal round: peer scoring failed to evict the slow-drip peers")
				}
				for _, adv := range w.Sim.Adversaries {
					adv.SetSlowDrip(0)
				}
				w.SetHealed(healRound)
			}
			return nil
		},
	})

	Register(Scenario{
		Name: "replica-churn",
		Description: "replicas join mid-stream, a quarantine storm takes the whole " +
			"fleet out, and snapshot re-hydration readmits everyone",
		Step: func(w *World, round int) error {
			switch round {
			case 5, 15:
				if _, err := w.Fleet.AddReplica(); err != nil {
					return fmt.Errorf("replica join: %w", err)
				}
			case 10:
				// The storm: every replica pulled at once. Queries must
				// forward to the authority until readmission.
				for i := 0; i < w.Fleet.Replicas(); i++ {
					w.Fleet.Replica(i).Quarantine()
				}
			case 18:
				for i := 0; i < w.Fleet.Replicas(); i++ {
					if w.Fleet.Replica(i).Broken() {
						if err := w.Fleet.HydrateReplica(i); err != nil {
							return fmt.Errorf("readmit replica %d: %w", i, err)
						}
					}
				}
			case 22:
				w.Fleet.Replica(w.Rng.Intn(w.Fleet.Replicas())).Quarantine()
			case healRound:
				for i := 0; i < w.Fleet.Replicas(); i++ {
					if w.Fleet.Replica(i).Broken() {
						if err := w.Fleet.HydrateReplica(i); err != nil {
							return fmt.Errorf("readmit replica %d: %w", i, err)
						}
					}
				}
				w.SetHealed(healRound)
			}
			return nil
		},
	})

	Register(Scenario{
		Name: "crash-storm",
		Description: "canister upgrades die mid-install — torn snapshot write, " +
			"bit-flipped image, crash inside the restore; the journal detects every " +
			"torn state and recovers from checkpoint (plus wire replay) or the " +
			"intact pending image",
		Step: func(w *World, round int) error {
			switch round {
			case 2, 10:
				if err := w.Subnet.CommitCheckpoint(CanisterID); err != nil {
					return fmt.Errorf("checkpoint: %w", err)
				}
			case 6:
				rep, err := w.CrashUpgrade(ic.UpgradeCrash{Stage: ic.CrashTornWrite, Offset: 1 + w.Rng.Intn(1<<20)})
				if err != nil {
					return fmt.Errorf("torn-write upgrade: %w", err)
				}
				if !rep.Crashed || !rep.TornDetected || rep.RecoveredFrom != ic.RecoveryCheckpoint {
					return fmt.Errorf("torn write not detected and recovered from checkpoint: %+v", rep)
				}
			case 13:
				rep, err := w.CrashUpgrade(ic.UpgradeCrash{Stage: ic.CrashBitFlip, Offset: w.Rng.Intn(1 << 24)})
				if err != nil {
					return fmt.Errorf("bit-flip upgrade: %w", err)
				}
				if !rep.Crashed || !rep.TornDetected || rep.RecoveredFrom != ic.RecoveryCheckpoint {
					return fmt.Errorf("bit flip not detected and recovered from checkpoint: %+v", rep)
				}
			case 19:
				// The image landed intact; only the install died. Recovery must
				// replay the pending image, NOT fall back (that would silently
				// discard the blocks folded since the last checkpoint).
				rep, err := w.CrashUpgrade(ic.UpgradeCrash{Stage: ic.CrashMidRestore})
				if err != nil {
					return fmt.Errorf("mid-restore upgrade: %w", err)
				}
				if !rep.Crashed || rep.TornDetected || rep.RecoveredFrom != ic.RecoveryPending {
					return fmt.Errorf("mid-restore crash should recover from the intact pending image: %+v", rep)
				}
			case healRound:
				if w.Recovering() {
					return fmt.Errorf("wire replay has not re-reached the oracle by the heal round")
				}
				w.SetHealed(healRound)
			}
			return nil
		},
	})

	Register(Scenario{
		Name: "corrupt-stream",
		Description: "the replica delta stream suffers seeded bit-flips, truncation, " +
			"duplication, and drops; frame checksums and strict sequencing catch every " +
			"one and auto-resync re-hydrates the victims",
		Step: func(w *World, round int) error {
			switch round {
			case injectRound:
				w.SetFrameFault(func(replica int, seq uint64, raw []byte) [][]byte {
					// One victim per frame (rotating), faulted about a third of
					// the time; the RNG is only drawn for the victim so the
					// fault schedule stays deterministic per seed.
					if replica != int(seq%replicas) || w.Rng.Float64() > 0.35 {
						return [][]byte{raw}
					}
					return MutateFrame(w.Rng, raw)
				})
			case healRound:
				w.SetFrameFault(nil)
				st := w.Fleet.Stats()
				if st.FrameCorrupt+st.FrameGaps+st.FrameDuplicates == 0 {
					return fmt.Errorf("no injected corruption was ever detected (corrupt=%d gaps=%d dups=%d)",
						st.FrameCorrupt, st.FrameGaps, st.FrameDuplicates)
				}
				if st.Resyncs == 0 {
					return fmt.Errorf("corruption detected but no automatic resync happened")
				}
				w.SetHealed(healRound)
			}
			return nil
		},
	})

	Register(Scenario{
		Name: "byzantine-replica",
		Description: "one replica tampers with certified envelopes after signing and " +
			"another replays stale ones; the fleet's response audit ejects both while " +
			"honest replicas keep every answer verifiable and fresh",
		Step: func(w *World, round int) error {
			switch round {
			case injectRound:
				w.Fleet.SetVerifier(w.verifier)
				w.Fleet.SetResponseFault(TamperLiar(0))
			case 12:
				tamper, replay := TamperLiar(0), StaleReplayLiar(1)
				w.Fleet.SetResponseFault(func(i int, method string, rq ic.RoutedQuery) ic.RoutedQuery {
					return replay(i, method, tamper(i, method, rq))
				})
			}
			if round >= injectRound && round < healRound {
				// Clients must get verifiable, bounded-fresh answers every
				// round no matter which replica the router tries first.
				authTip := w.Canister().TipHeight()
				w.Fleet.SetSigner(w.signer)
				for k := 0; k < 2; k++ {
					rq := w.Fleet.RouteQuery("get_tip", nil, "byzantine-probe", w.Sched.Now())
					if rq.Err != nil {
						return fmt.Errorf("signed get_tip %d: %w", k, rq.Err)
					}
					if err := CheckCertified(w.Subnet, "get_tip", rq); err != nil {
						return fmt.Errorf("served get_tip %d: %w", k, err)
					}
					if lag := authTip - rq.TipHeight; lag > 3 {
						return fmt.Errorf("served get_tip %d is %d blocks stale (bound 3)", k, lag)
					}
				}
				w.Fleet.SetSigner(nil)
			}
			if round == healRound {
				st := w.Fleet.Stats()
				if st.ByzantineEjected < 2 {
					return fmt.Errorf("audit ejected %d replicas, want both equivocators", st.ByzantineEjected)
				}
				for i := 0; i < 2; i++ {
					if !w.Fleet.Replica(i).Broken() {
						return fmt.Errorf("equivocating replica %d was never quarantined", i)
					}
				}
				w.Fleet.SetResponseFault(nil)
				for i := 0; i < w.Fleet.Replicas(); i++ {
					if w.Fleet.Replica(i).Broken() {
						if err := w.Fleet.HydrateReplica(i); err != nil {
							return fmt.Errorf("readmit replica %d: %w", i, err)
						}
					}
				}
				w.SetHealed(healRound)
			}
			return nil
		},
	})

	Register(Scenario{
		Name: "upgrade-storm",
		Description: "canister snapshot-reinstall upgrades every few rounds while " +
			"ingest and the fleet stream stay hot",
		Step: func(w *World, round int) error {
			if round%7 == 6 && round <= 48 {
				if err := w.UpgradeCanister(); err != nil {
					return fmt.Errorf("upgrade: %w", err)
				}
			}
			if round == 49 {
				w.SetHealed(49)
			}
			return nil
		},
	})
}
