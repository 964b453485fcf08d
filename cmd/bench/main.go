// Command bench regenerates the paper's figures and in-text measurements:
// metered instructions and simulated latency on the virtual clock, so the
// same flags print the same bytes on every run (testdata/figures.golden).
// Wall-clock measurement lives in benchmark/ and nowhere else.
//
// Usage:
//
//	bench -fig all      # every figure below, in this order (default)
//	bench -fig <name>   # one of them; an unknown name lists the valid ones
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"icbtc/internal/btc"
	"icbtc/internal/chain"
	"icbtc/internal/experiments"
)

// opts are the knobs the figures share; each figure reads the ones it has.
type opts struct {
	seed   int64
	scale  int
	trials int
}

// figure is one -fig value. The flag help, the "all" loop, the unknown-name
// error and the golden test all iterate the figures table.
type figure struct {
	name  string
	title string
	run   func(io.Writer, opts) error
}

var figures = []figure{
	{"3", "Figure 3", func(w io.Writer, _ opts) error {
		printFigure3(w)
		return nil
	}},
	{"5", "Figure 5", func(w io.Writer, o opts) error {
		cfg := experiments.DefaultFig5Config()
		cfg.Seed = o.seed
		res, err := experiments.RunFig5(cfg)
		if err != nil {
			return err
		}
		res.Print(w)
		return nil
	}},
	{"6", "Figure 6", func(w io.Writer, o opts) error {
		cfg := experiments.DefaultFig6Config()
		cfg.Seed = o.seed
		res, err := experiments.RunFig6(cfg)
		if err != nil {
			return err
		}
		res.Print(w)
		return nil
	}},
	{"7", "Figure 7", func(w io.Writer, o opts) error {
		cfg := experiments.DefaultFig7Config()
		cfg.Seed = o.seed
		cfg.Scale = o.scale
		res, err := experiments.RunFig7(cfg)
		if err != nil {
			return err
		}
		res.Print(w)
		return nil
	}},
	{"latency", "Latency distribution (§IV-B)", func(w io.Writer, o opts) error {
		cfg := experiments.DefaultLatencyConfig()
		cfg.Seed = o.seed
		cfg.Scale = o.scale
		res, err := experiments.RunLatency(cfg)
		if err != nil {
			return err
		}
		res.Print(w)
		return nil
	}},
	{"cost", "Request cost (§IV-B)", func(w io.Writer, o opts) error {
		res, err := experiments.RunCost(o.seed)
		if err != nil {
			return err
		}
		res.Print(w)
		return nil
	}},
	{"eclipse", "Lemma IV.1 (eclipse)", func(w io.Writer, o opts) error {
		experiments.RunEclipse(o.trials, o.seed).Print(w)
		return nil
	}},
	{"downtime", "Lemma IV.3 (downtime)", func(w io.Writer, o opts) error {
		experiments.RunDowntime(o.trials, o.seed, 13).Print(w)
		return nil
	}},
	{"scaling", "Extension: throughput scaling", func(w io.Writer, o opts) error {
		res, err := experiments.RunScaling(o.seed)
		if err != nil {
			return err
		}
		res.Print(w)
		return nil
	}},
	{"degrade", "Degradation: recovery vs adapter-link loss rate", func(w io.Writer, o opts) error {
		cfg := experiments.DefaultDegradeConfig()
		cfg.Seed = o.seed
		res, err := experiments.RunDegrade(cfg)
		if err != nil {
			return err
		}
		res.Print(w)
		return nil
	}},
	{"readpath", "Read path: overlay vs the replay oracle, one canister (δ=144)", func(w io.Writer, o opts) error {
		cfg := experiments.DefaultReadPathConfig()
		cfg.Seed = o.seed
		res, err := experiments.RunReadPath(cfg)
		if err != nil {
			return err
		}
		res.Print(w)
		return nil
	}},
	{"ablations", "Ablation: δ sweep", func(w io.Writer, o opts) error {
		d, err := experiments.RunDeltaSweep(o.seed)
		if err != nil {
			return err
		}
		d.Print(w)
		section(w, "Ablation: Algorithm 1 sync modes")
		s, err := experiments.RunSyncModes(o.seed)
		if err != nil {
			return err
		}
		s.Print(w)
		section(w, "Ablation: τ sweep")
		t, err := experiments.RunTauSweep(o.seed)
		if err != nil {
			return err
		}
		t.Print(w)
		return nil
	}},
}

func section(w io.Writer, title string) { fmt.Fprintf(w, "\n===== %s =====\n", title) }

func figureNames() string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return strings.Join(names, ", ")
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is main without the process: it returns the exit status — 0, 1 when a
// figure fails, 2 for a bad flag or an unknown -fig value.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure to regenerate: "+figureNames()+", or all")
	var o opts
	fs.Int64Var(&o.seed, "seed", 7, "simulation seed")
	fs.IntVar(&o.scale, "scale", 10, "population scale divisor for Fig 7 / latency (1 = paper's full 1000 addresses)")
	fs.IntVar(&o.trials, "trials", 50_000, "Monte Carlo trials for the security lemmas")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ran := false
	for _, f := range figures {
		if *fig != "all" && *fig != f.name {
			continue
		}
		ran = true
		section(stdout, f.title)
		if err := f.run(stdout, o); err != nil {
			fmt.Fprintf(stderr, "bench: -fig %s: %v\n", f.name, err)
			return 1
		}
	}
	if !ran {
		fmt.Fprintf(stderr, "bench: unknown -fig %q (valid: %s, all)\n", *fig, figureNames())
		return 2
	}
	return 0
}

// printFigure3 rebuilds the Figure 3 block tree and prints each block's
// confirmation-based stability (see internal/chain's TestFigure3 for the
// topology reconstruction notes).
func printFigure3(w io.Writer) {
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
	fmt.Fprintln(w, "Figure 3: confirmation-based stability per block (heights h..h+6)")
	fmt.Fprint(w, "main chain:  ")
	for _, n := range main {
		fmt.Fprintf(w, "%3d ", tree.StabilityByCount(n))
	}
	fmt.Fprint(w, "\nfork A:          ")
	for _, n := range forkA {
		fmt.Fprintf(w, "%3d ", tree.StabilityByCount(n))
	}
	fmt.Fprint(w, "\nfork B:                  ")
	for _, n := range forkB {
		fmt.Fprintf(w, "%3d ", tree.StabilityByCount(n))
	}
	fmt.Fprintln(w, "\n(paper prints the fork rows as -2 -2 -2 and -1 -1; see internal/chain's TestFigure3 for the main-row note)")
}
