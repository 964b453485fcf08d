// Command bench regenerates the paper's figures and in-text measurements.
//
// Usage:
//
//	bench -fig all          # everything (default)
//	bench -fig 3            # Figure 3 block-tree stability annotations
//	bench -fig 5            # Figure 5 UTXO/storage growth
//	bench -fig 6            # Figure 6 block ingestion cost
//	bench -fig 7            # Figure 7 latency + instructions vs #UTXOs
//	bench -fig latency      # §IV-B latency distribution
//	bench -fig cost         # §IV-B requests-per-dollar arithmetic
//	bench -fig eclipse      # Lemma IV.1 Monte Carlo
//	bench -fig downtime     # Lemma IV.3 Monte Carlo
//	bench -fig readpath     # overlay vs the replay oracle over one canister, δ=144
//	bench -fig snapshot     # snapshot codec: size, encode/decode, fast-sync
//	bench -fig ingest       # serial vs pipelined block ingest + sharded hydration
//	bench -fig queryfleet   # read-replica fleet QPS/latency scaling 1→8
//	bench -fig fleetload    # open-loop Zipf load vs the serving layers (coalesce/cache/admission)
//	bench -fig chaos        # fault-scenario recovery (rounds to reconverge)
//	bench -fig degrade      # recovery vs adapter-link loss rate sweep
//	bench -fig ablations    # δ / τ / sync-mode ablations
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"icbtc/internal/btc"
	"icbtc/internal/chain"
	"icbtc/internal/experiments"
	"icbtc/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (3, 5, 6, 7, latency, cost, eclipse, downtime, readpath, snapshot, ingest, queryfleet, fleetload, chaos, degrade, ablations, scaling, all)")
	seed := flag.Int64("seed", 7, "simulation seed")
	scale := flag.Int("scale", 10, "population scale divisor for Fig 7 / latency (1 = paper's full 1000 addresses)")
	trials := flag.Int("trials", 50_000, "Monte Carlo trials for the security lemmas")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	metrics := flag.String("metrics", "", "write the run's obs metrics (Prometheus text) to this file ('-' for stdout)")
	obstrace := flag.String("obstrace", "", "write the fleetload passes' obs event traces to this file (enables tracing)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if err := run(*fig, *seed, *scale, *trials, *metrics, *obstrace); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// obsDump accumulates observability output across the figures that expose
// it: metric snapshots are merged into one Prometheus-text dump, event
// traces and pre-rendered texts are appended as labeled sections.
type obsDump struct {
	snaps  []*obs.Snapshot
	texts  []string // pre-rendered Prometheus sections (e.g. chaos runs)
	traces []string
}

func (d *obsDump) writeMetrics(path string) error {
	if path == "" || (len(d.snaps) == 0 && len(d.texts) == 0) {
		return nil
	}
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if len(d.snaps) > 0 {
		merged, err := obs.Merge(d.snaps...)
		if err != nil {
			return err
		}
		if err := merged.WriteProm(w); err != nil {
			return err
		}
	}
	for _, t := range d.texts {
		if _, err := fmt.Fprint(w, t); err != nil {
			return err
		}
	}
	return nil
}

func (d *obsDump) writeTraces(path string) error {
	if path == "" || len(d.traces) == 0 {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, t := range d.traces {
		if _, err := fmt.Fprint(f, t); err != nil {
			return err
		}
	}
	return nil
}

func run(fig string, seed int64, scale, trials int, metrics, obstrace string) error {
	all := fig == "all"
	out := os.Stdout
	section := func(name string) { fmt.Fprintf(out, "\n===== %s =====\n", name) }
	var dump obsDump

	if all || fig == "3" {
		section("Figure 3")
		printFigure3(seed)
	}
	if all || fig == "5" {
		section("Figure 5")
		cfg := experiments.DefaultFig5Config()
		cfg.Seed = seed
		res, err := experiments.RunFig5(cfg)
		if err != nil {
			return err
		}
		res.Print(out)
	}
	if all || fig == "6" {
		section("Figure 6")
		cfg := experiments.DefaultFig6Config()
		cfg.Seed = seed
		res, err := experiments.RunFig6(cfg)
		if err != nil {
			return err
		}
		res.Print(out)
	}
	if all || fig == "7" {
		section("Figure 7")
		cfg := experiments.DefaultFig7Config()
		cfg.Seed = seed
		cfg.Scale = scale
		res, err := experiments.RunFig7(cfg)
		if err != nil {
			return err
		}
		res.Print(out)
	}
	if all || fig == "latency" {
		section("Latency distribution (§IV-B)")
		cfg := experiments.DefaultLatencyConfig()
		cfg.Seed = seed
		cfg.Scale = scale
		res, err := experiments.RunLatency(cfg)
		if err != nil {
			return err
		}
		res.Print(out)
	}
	if all || fig == "cost" {
		section("Request cost (§IV-B)")
		res, err := experiments.RunCost(seed)
		if err != nil {
			return err
		}
		res.Print(out)
	}
	if all || fig == "eclipse" {
		section("Lemma IV.1 (eclipse)")
		experiments.RunEclipse(trials, seed).Print(out)
	}
	if all || fig == "downtime" {
		section("Lemma IV.3 (downtime)")
		experiments.RunDowntime(trials, seed, 13).Print(out)
	}
	if all || fig == "scaling" {
		section("Extension: throughput scaling")
		sc, err := experiments.RunScaling(seed)
		if err != nil {
			return err
		}
		sc.Print(out)
	}
	if all || fig == "queryfleet" {
		section("Query fleet: certified read replicas")
		cfg := experiments.DefaultQueryFleetConfig()
		cfg.Seed = seed
		res, err := experiments.RunQueryFleet(cfg)
		if err != nil {
			return err
		}
		res.Print(out)
	}
	if all || fig == "fleetload" {
		section("Fleet load: serving layers under open-loop overload")
		cfg := experiments.DefaultFleetLoadConfig()
		cfg.Seed = seed
		cfg.TraceEvents = obstrace != ""
		res, err := experiments.RunFleetLoad(cfg)
		if err != nil {
			return err
		}
		res.Print(out)
		dump.snaps = append(dump.snaps, res.Baseline.Obs, res.Layered.Obs)
		for _, p := range []experiments.FleetLoadPass{res.Baseline, res.Layered} {
			if p.TraceText != "" {
				dump.traces = append(dump.traces, fmt.Sprintf("# pass %s\n%s", p.Name, p.TraceText))
			}
		}
	}
	if all || fig == "chaos" {
		section("Chaos: fault-scenario recovery")
		cfg := experiments.DefaultChaosConfig()
		cfg.Seed = seed
		res, err := experiments.RunChaos(cfg)
		if err != nil {
			return err
		}
		res.Print(out)
		if res.LastMetricsText != "" {
			dump.texts = append(dump.texts, "# chaos (last scenario)\n"+res.LastMetricsText)
		}
	}
	if all || fig == "degrade" {
		section("Degradation: recovery vs adapter-link loss rate")
		cfg := experiments.DefaultDegradeConfig()
		cfg.Seed = seed
		res, err := experiments.RunDegrade(cfg)
		if err != nil {
			return err
		}
		res.Print(out)
	}
	if all || fig == "snapshot" {
		section("Snapshot: upgrade & fast-sync")
		cfg := experiments.DefaultSnapshotConfig()
		cfg.Seed = seed
		res, err := experiments.RunSnapshot(cfg)
		if err != nil {
			return err
		}
		res.Print(out)
	}
	if all || fig == "ingest" {
		section("Ingest: serial vs parallel pipeline")
		cfg := experiments.DefaultIngestConfig()
		cfg.Seed = seed
		res, err := experiments.RunIngest(cfg)
		if err != nil {
			return err
		}
		res.Print(out)
	}
	if all || fig == "readpath" {
		section("Read path: overlay vs the replay oracle, one canister (δ=144)")
		cfg := experiments.DefaultReadPathConfig()
		cfg.Seed = seed
		res, err := experiments.RunReadPath(cfg)
		if err != nil {
			return err
		}
		res.Print(out)
	}
	if all || fig == "ablations" {
		section("Ablation: δ sweep")
		d, err := experiments.RunDeltaSweep(seed)
		if err != nil {
			return err
		}
		d.Print(out)
		section("Ablation: Algorithm 1 sync modes")
		s, err := experiments.RunSyncModes(seed)
		if err != nil {
			return err
		}
		s.Print(out)
		section("Ablation: τ sweep")
		tres, err := experiments.RunTauSweep(seed)
		if err != nil {
			return err
		}
		tres.Print(out)
	}
	if err := dump.writeMetrics(metrics); err != nil {
		return fmt.Errorf("writing metrics dump: %w", err)
	}
	if err := dump.writeTraces(obstrace); err != nil {
		return fmt.Errorf("writing obs trace: %w", err)
	}
	return nil
}

// printFigure3 rebuilds the Figure 3 block tree and prints each block's
// confirmation-based stability (see internal/chain's TestFigure3 for the
// topology reconstruction notes).
func printFigure3(seed int64) {
	params := btc.RegtestParams()
	tree := chain.NewTree(params.GenesisHeader, 0)
	bits := params.GenesisHeader.Bits
	mk := func(prev btc.Hash, nonce uint32) *chain.Node {
		h := btc.BlockHeader{
			Version:    1,
			PrevBlock:  prev,
			MerkleRoot: btc.DoubleSHA256([]byte{byte(nonce), byte(nonce >> 8)}),
			Timestamp:  1_600_000_000 + nonce,
			Bits:       bits,
			Nonce:      nonce,
		}
		n, err := tree.Insert(h)
		if err != nil {
			panic(err)
		}
		return n
	}
	main := make([]*chain.Node, 7)
	prev := tree.Root()
	for i := range main {
		main[i] = mk(prev.Hash, uint32(1000+i))
		prev = main[i]
	}
	forkA := make([]*chain.Node, 3)
	prev = main[1]
	for i := range forkA {
		forkA[i] = mk(prev.Hash, uint32(2000+i))
		prev = forkA[i]
	}
	forkB := make([]*chain.Node, 2)
	prev = main[3]
	for i := range forkB {
		forkB[i] = mk(prev.Hash, uint32(3000+i))
		prev = forkB[i]
	}
	fmt.Println("Figure 3: confirmation-based stability per block (heights h..h+6)")
	fmt.Print("main chain:  ")
	for _, n := range main {
		fmt.Printf("%3d ", tree.StabilityByCount(n))
	}
	fmt.Print("\nfork A:          ")
	for _, n := range forkA {
		fmt.Printf("%3d ", tree.StabilityByCount(n))
	}
	fmt.Print("\nfork B:                  ")
	for _, n := range forkB {
		fmt.Printf("%3d ", tree.StabilityByCount(n))
	}
	fmt.Println("\n(paper prints the fork rows as -2 -2 -2 and -1 -1; see EXPERIMENTS.md for the main-row note)")
	_ = seed
}
