package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"runtime"
	"testing"
	"time"

	"icbtc/internal/simnet"
)

var (
	// soakFlag is the wall-clock budget for the long soak: the harness keeps
	// drawing fresh seeds and running the whole battery until time is up.
	soakFlag = flag.Duration("soak", 0, "wall-clock budget for TestChaosSoak (0 skips the soak)")
	// chaosSeed replays one failing seed — the one-liner every chaos failure
	// message prints.
	chaosSeed = flag.Int64("chaos.seed", 0, "override the scenario seed (0 = default battery seed)")
	// chaosScenario narrows TestChaosScenarios to one registered scenario —
	// the other half of the failure messages' reproduction one-liner.
	chaosScenario = flag.String("chaos.scenario", "", "run only this registered scenario (empty = the whole battery)")
	// soakMetrics writes the final soak run's merged obs metrics dump
	// (Prometheus text) to a file — CI uploads it as an artifact next to the
	// failing-seed log.
	soakMetrics = flag.String("soak.metrics", "", "path to write the soak's final metrics dump (empty = skip)")
)

// TestChaosScenarios is the short, seeded tier-1 variant: every registered
// scenario once, fixed seed, full invariant checking, and the run must end
// byte-identical to the undisturbed oracle.
func TestChaosScenarios(t *testing.T) {
	seed := int64(7)
	if *chaosSeed != 0 {
		seed = *chaosSeed
	}
	names := Names()
	if len(names) < 6 {
		t.Fatalf("scenario registry holds %d scenarios, want >= 6", len(names))
	}
	if *chaosScenario != "" {
		if _, ok := Lookup(*chaosScenario); !ok {
			t.Fatalf("unknown scenario %q (registered: %v)", *chaosScenario, names)
		}
		names = []string{*chaosScenario}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			res, err := RunScenario(name, DefaultConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			if res.ConvergedRound < 0 {
				t.Fatalf("scenario did not reconverge: %+v", res)
			}
			if !res.OracleIdentical {
				t.Fatalf("final state not byte-identical to the oracle: %+v", res)
			}
			if res.RecoveryRounds < 0 {
				t.Fatalf("converged before heal?! %+v", res)
			}
			t.Logf("heal=%d converged=%d recovery=%d rounds, height=%d, snapshot=%dB",
				res.HealRound, res.ConvergedRound, res.RecoveryRounds, res.FinalHeight, res.SnapshotBytes)
		})
	}
}

// TestChaosDeterminism pins the harness's "same seed, same run" promise: a
// scenario replayed under one seed must land on the identical Result, round
// for round, and on the identical telemetry. Two probes, each sensitive to a
// leak the other cannot see. The lossy-link scenario consumes a seeded RNG
// draw per delivery, so any map-iteration-order leak in a send loop (the bug
// this test regressed on: adapter and node broadcast loops ranged over peer
// maps) shifts the draw sequence and with it the recovery round. crash-storm's
// crashed upgrades go through the subnet's recovery path, which re-snapshots
// the restored instance before the harness sees it: anything a fresh instance
// reads from outside the seed (it regressed on the restored registry's wall
// clock timing that snapshot) lands in the metrics digest.
func TestChaosDeterminism(t *testing.T) {
	lossy := Scenario{
		Name: "determinism-probe",
		Step: func(w *World, round int) error {
			switch round {
			case injectRound:
				w.DegradeAdapterLinks(&simnet.LinkProfile{LossRate: 0.25})
			case healRound:
				w.DegradeAdapterLinks(nil)
				w.SetHealed(healRound)
			}
			return nil
		},
	}
	crashStorm, ok := Lookup("crash-storm")
	if !ok {
		t.Fatal("crash-storm is not registered")
	}
	short := DefaultConfig(7)
	short.Rounds = 32
	for _, probe := range []struct {
		scenario Scenario
		cfg      Config
	}{
		{lossy, short},
		{crashStorm, DefaultConfig(7)},
	} {
		t.Run(probe.scenario.Name, func(t *testing.T) {
			first, err := Run(probe.scenario, probe.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if first.MetricsDigest == ([32]byte{}) {
				t.Fatal("run produced an empty metrics digest")
			}
			for i := 0; i < 2; i++ {
				again, err := Run(probe.scenario, probe.cfg)
				if err != nil {
					t.Fatal(err)
				}
				// The telemetry extension of the same-seed promise: the encoded
				// obs snapshot (canister + adapter + fleet serving counters) must
				// be bit-identical, compared by digest so a failure does not dump
				// the full Prometheus text.
				if again.MetricsDigest != first.MetricsDigest {
					t.Fatalf("replay %d: metrics snapshot diverged: digest %x vs %x",
						i+1, again.MetricsDigest, first.MetricsDigest)
				}
				a, f := again, first
				a.MetricsText, f.MetricsText = "", ""
				if a != f {
					t.Fatalf("replay %d diverged:\nfirst %+v\nagain %+v", i+1, f, a)
				}
			}
		})
	}
}

// TestCrashStormPinned holds crash-storm's whole Result, metrics digest and
// text included, at two seeds. Its crashed upgrades are the harness damaging
// the live image and calling the subnet's recovery path. The pins predate
// that split, when the subnet damaged the image itself, so they hold it to
// the same fault-schedule draws, the same damaged bytes and the same
// recovered state and telemetry. The fleet's ingest_window_depth gauge is
// the window of its replicas' catch-up ingest, which ingest.DefaultWorkers
// sizes from GOMAXPROCS, so the pins hold at the GOMAXPROCS they were taken
// at, 2.
func TestCrashStormPinned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, pin := range []struct {
		seed    int64
		digest  string
		textSum string
	}{
		{7, "47986439bbae519b964621d7ad3239e362775414f1b00c0417013fbaebaa401a", "d0b35885d9eb67ddd410cb76e7664afb08952808c81d02290f58d22c156c74ad"},
		{11, "e8497947d09e07c902773c7e58cd32285f79594a44243a22561cc3c73618727e", "bf3201af240f436384c4a3cb3f660c88e54872e169a55a029eb3a1263d2d2dd0"},
	} {
		res, err := RunScenario("crash-storm", DefaultConfig(pin.seed))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(res.MetricsDigest[:]); got != pin.digest {
			t.Errorf("seed %d: metrics digest %s, want %s", pin.seed, got, pin.digest)
		}
		if sum := sha256.Sum256([]byte(res.MetricsText)); hex.EncodeToString(sum[:]) != pin.textSum {
			t.Errorf("seed %d: metrics text SHA-256 %x, want %s", pin.seed, sum, pin.textSum)
		}
		want := Result{
			Scenario: "crash-storm", Seed: pin.seed, Rounds: 60, HealRound: 25, ConvergedRound: 25,
			OracleIdentical: true, FinalHeight: 60, SnapshotBytes: 9622,
		}
		res.MetricsText, res.MetricsDigest = "", [32]byte{}
		if res != want {
			t.Errorf("seed %d: result\n got %+v\nwant %+v", pin.seed, res, want)
		}
	}
}

// TestChaosSoak runs the battery over fresh seeds until the -soak budget is
// spent: go test ./internal/chaos -run TestChaosSoak -soak 5m. Any failure
// message carries the seed and scenario for one-line reproduction.
func TestChaosSoak(t *testing.T) {
	if *soakFlag <= 0 {
		t.Skip("soak disabled; pass -soak 5m to run")
	}
	deadline := time.Now().Add(*soakFlag)
	runs := 0
	var lastMetrics string
	for seed := int64(1); time.Now().Before(deadline); seed++ {
		for _, name := range Names() {
			if !time.Now().Before(deadline) {
				break
			}
			cfg := DefaultConfig(seed)
			cfg.CertifyEvery = 20 // keep threshold signing from dominating the soak
			res, err := RunScenario(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.ConvergedRound < 0 {
				t.Fatalf("chaos: scenario %q seed %d: did not reconverge: %+v", name, seed, res)
			}
			lastMetrics = res.MetricsText
			runs++
		}
	}
	if *soakMetrics != "" && lastMetrics != "" {
		if err := os.WriteFile(*soakMetrics, []byte(lastMetrics), 0o644); err != nil {
			t.Errorf("writing soak metrics dump: %v", err)
		}
	}
	t.Logf("soak complete: %d scenario runs", runs)
}
