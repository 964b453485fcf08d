// Command benchmark is the repo's benchmark: four real-time workloads over
// the write path (wire block -> queryable on a replica) and the read path
// (routed query), measured in CPU time from outside the program, with a
// separate traced run that attributes the time to layers. See README.md.
//
// The driver runs it, through run.sh, as
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	secs := fs.Float64("seconds", 10, "how long the timed section measures")
	trace := fs.Int("trace", 0, "1 makes the traced run that yields the per-layer metrics")
	out := fs.String("out", "benchmark/out", "directory the traced run writes its span files to")
	list := fs.Bool("list", false, "print workloads and metrics with units, run nothing")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A.jsonl B.jsonl")
	sweep := fs.Int("sweep", 0, "run every workload this many times, each with another seed, as separate processes")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark declaration -compare reads the bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		printList(stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result-set files")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), *spec, stdout, stderr)
	case *sweep > 0:
		return sweepAll(*sweep, *seed, *secs, *trace, stdout, stderr)
	}
	res, err := runWorkload(*workload, *seed, *secs, *trace != 0, fullScale, *out)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, d := range workloadDefs {
		fmt.Fprintf(w, "  %-12s %s\n", d.Name, d.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (--trace 0):")
	for _, d := range endToEndDefs {
		fmt.Fprintf(w, "  %-40s %-8s %s is better\n", d.Name, d.Unit, d.Better)
	}
	fmt.Fprintln(w, "per-layer metrics (--trace 1):")
	for _, d := range perLayerDefs {
		fmt.Fprintf(w, "  %-40s %-8s %s is better\n", d.Name, d.Unit, d.Better)
	}
}

// notMeasured lists, per workload, the per-layer metrics that workload has
// nothing to measure for; the traced run reports them as 0 so that every
// workload prints every name.
var notMeasured = map[string][]string{
	wlIngestSync: {
		"queryfleet.cache_hit_ratio", "queryfleet.cache_fills", "queryfleet.coalesced", "queryfleet.served",
		"queryfleet.forwarded", "queryfleet.frames", "query_p99_us", "query_over_1ms_share",
		"bench.block_to_queryable_ms_p95", "bench.query_from_due_us_p95", "bench.query_from_due_us_p99",
		"bench.query_hot_p99_us", "bench.block_generator_late_ms_p95", "bench.query_generator_late_us_p99",
	},
	wlQueryHot: {
		"query_over_1ms_share", "bench.block_to_queryable_ms_p95", "bench.query_from_due_us_p95",
		"bench.query_from_due_us_p99", "bench.block_generator_late_ms_p95", "bench.query_generator_late_us_p99",
	},
	wlQueryCold: {
		"query_over_1ms_share", "bench.block_to_queryable_ms_p95", "bench.query_from_due_us_p95",
		"bench.query_from_due_us_p99", "bench.query_hot_p99_us", "bench.block_generator_late_ms_p95",
		"bench.query_generator_late_us_p99",
	},
	wlTipMixed: {"bench.query_hot_p99_us"},
}

// runWorkload builds the inputs from the seed, runs one workload, checks its
// answers against the ledger and returns the result line.
func runWorkload(name string, seed int64, secs float64, traced bool, sc scale, outDir string) (*Result, error) {
	blocks := sc.preload
	switch name {
	case wlIngestSync, wlQueryHot, wlQueryCold:
	case wlTipMixed:
		blocks += sc.tipBlocks(secs)
	default:
		return nil, fmt.Errorf("unknown workload %q (see -list)", name)
	}
	if traced && blocks < sc.preload+sc.probeTip {
		blocks = sc.preload + sc.probeTip
	}
	if secs <= 0 {
		return nil, fmt.Errorf("--seconds must be positive, got %v", secs)
	}
	fx, err := BuildFixture(seed, blocks, sc.txs)
	if err != nil {
		return nil, err
	}
	return runOn(name, fx, secs, traced, sc, outDir)
}

// runOn runs one workload on a built fixture.
func runOn(name string, fx *Fixture, secs float64, traced bool, sc scale, outDir string) (*Result, error) {
	var out *outcome
	var err error
	switch name {
	case wlIngestSync:
		out, err = runIngestSync(fx, sc, secs, traced)
	case wlQueryHot:
		out, err = runQueries(fx, sc, true, secs, traced)
	case wlQueryCold:
		out, err = runQueries(fx, sc, false, secs, traced)
	case wlTipMixed:
		out, err = runTipMixed(fx, sc, secs, traced)
	}
	if err != nil {
		return nil, err
	}
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
		if err := writeSpans(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, fx.Seed), out.tracers...); err != nil {
			return nil, err
		}
		for _, n := range notMeasured[name] {
			out.values[n] = 0
		}
		checked, wrong, err := runLayerProbes(fx, sc, out.values)
		if err != nil {
			return nil, err
		}
		out.attempted += checked
		out.failed += wrong
		out.values["failed_ops_share"] = float64(out.failed) / float64(out.attempted)
	}
	metrics, err := report(defs, out.values)
	if err != nil {
		return nil, err
	}
	// The stages of a block must account for its whole (within 5 %), or the
	// per-layer attribution is not to be trusted.
	correct := out.failed == 0 && (!traced || out.values["bench.stage_sum_error_pct"] <= 5)
	return &Result{Correct: correct, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}, nil
}
