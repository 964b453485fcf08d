package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
	"icbtc/internal/obs"
	"icbtc/internal/simnet"
)

// Fig7Row is one address's measurements.
type Fig7Row struct {
	UTXOCount int
	// Latencies for the four request variants.
	BalanceQuery, BalanceReplicated time.Duration
	UTXOsQuery, UTXOsReplicated     time.Duration
	// Instructions for the replicated get_utxos call (Fig 7 right).
	UTXOsInstructions uint64
	// Unstable marks addresses whose UTXOs live in unstable blocks (the
	// lower branch of the bifurcation).
	Unstable bool
}

// Fig7Result regenerates Figure 7: response time for get_balance and
// get_utxos (replicated and non-replicated) and instructions executed for
// replicated UTXO requests, as functions of the UTXO-set size.
type Fig7Result struct {
	Rows []Fig7Row
}

// Fig7Config parameterizes the population and the measurement subnet.
type Fig7Config struct {
	// Scale divides the 1000-address population (scale 10 → 100 addresses,
	// keeping the paper's skew). Latency distributions are insensitive to
	// the population size; the default keeps the experiment fast.
	Scale int
	Seed  int64
}

// unstableFraction of addresses get their UTXOs in recent (unstable)
// blocks, producing the Fig 7 (right) bifurcation.
const unstableFraction = 0.3

// DefaultFig7Config returns the laptop-scale configuration.
func DefaultFig7Config() Fig7Config {
	return Fig7Config{Scale: 10, Seed: 7}
}

// loadPopulation feeds the population into a fresh canister. Addresses
// marked unstable receive their outputs in blocks that stay within δ of the
// tip; everything else is pushed below the anchor.
func loadPopulation(cfg Fig7Config) (*Feeder, *AddressPopulation, map[string]bool, error) {
	const delta = 6
	f := NewFeeder(btc.Regtest, delta, cfg.Seed)
	pop := NewAddressPopulation(btc.Regtest, cfg.Seed, cfg.Scale)

	unstable := make(map[string]bool)
	nUnstable := int(float64(len(pop.Addresses)) * unstableFraction)
	// The LAST nUnstable addresses are loaded late so their blocks stay
	// above the anchor.
	stableAddrs := pop.Addresses[:len(pop.Addresses)-nUnstable]
	unstableAddrs := pop.Addresses[len(pop.Addresses)-nUnstable:]

	// One transaction per address (all its outputs at once); a handful of
	// addresses per block keeps blocks well-formed and fast to hash.
	feed := func(addrs []PopulationAddress) error {
		const perBlock = 10
		for i := 0; i < len(addrs); i += perBlock {
			end := i + perBlock
			if end > len(addrs) {
				end = len(addrs)
			}
			var specs []TxSpec
			for _, a := range addrs[i:end] {
				specs = append(specs, TxSpec{Outputs: PayN(a.Script, a.Count, 546)})
			}
			if _, err := f.FeedBlock(specs); err != nil {
				return err
			}
		}
		return nil
	}
	if err := feed(stableAddrs); err != nil {
		return nil, nil, nil, err
	}
	// Push the stable population past δ.
	if err := f.FeedEmpty(delta + 2); err != nil {
		return nil, nil, nil, err
	}
	if err := feed(unstableAddrs); err != nil {
		return nil, nil, nil, err
	}
	for _, a := range unstableAddrs {
		unstable[a.Address] = true
	}
	return f, pop, unstable, nil
}

// RunFig7 loads the skewed address population and measures all four
// request variants per address on a default-configured subnet.
func RunFig7(cfg Fig7Config) (*Fig7Result, error) {
	f, pop, unstableSet, err := loadPopulation(cfg)
	if err != nil {
		return nil, err
	}

	// Install the preloaded canister on a measurement subnet.
	sched := simnet.NewScheduler(cfg.Seed)
	subCfg := ic.DefaultConfig()
	subCfg.DisableThresholdKeys = true // the subnet models certification latency as a fixed delay
	subCfg.Seed = cfg.Seed
	subnet, err := ic.NewSubnet(sched, subCfg)
	if err != nil {
		return nil, err
	}
	subnet.InstallCanister("bitcoin", f.Canister)
	subnet.Start()

	res := &Fig7Result{Rows: make([]Fig7Row, len(pop.Addresses))}
	done := 0
	for i, a := range pop.Addresses {
		i, a := i, a
		row := &res.Rows[i]
		row.Unstable = unstableSet[a.Address]
		subnet.Query("bitcoin", "get_balance", canister.GetBalanceArgs{Address: a.Address}, "bench", func(r ic.Result) {
			row.BalanceQuery = r.Latency
			done++
		})
		subnet.Query("bitcoin", "get_utxos", canister.GetUTXOsArgs{Address: a.Address}, "bench", func(r ic.Result) {
			row.UTXOsQuery = r.Latency
			if v, ok := r.Value.(*canister.GetUTXOsResult); ok && v != nil {
				row.UTXOCount = v.StableCount + v.UnstableCount
			}
			done++
		})
		subnet.SubmitUpdate("bitcoin", "get_balance", canister.GetBalanceArgs{Address: a.Address}, "bench", func(r ic.Result) {
			row.BalanceReplicated = r.Latency
			done++
		})
		subnet.SubmitUpdate("bitcoin", "get_utxos", canister.GetUTXOsArgs{Address: a.Address}, "bench", func(r ic.Result) {
			row.UTXOsReplicated = r.Latency
			row.UTXOsInstructions = r.Instructions
			done++
		})
	}
	want := len(pop.Addresses) * 4
	budget := sched.Now().Add(2 * time.Hour)
	for done < want && sched.Now().Before(budget) {
		sched.RunFor(time.Second)
	}
	if done < want {
		return nil, fmt.Errorf("experiments: fig7 timed out with %d/%d responses", done, want)
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].UTXOCount < res.Rows[j].UTXOCount })
	return res, nil
}

// bucketOf maps a UTXO count to the figure's logarithmic x-axis buckets.
var fig7Buckets = []int{1, 2, 4, 10, 20, 40, 100, 200, 400, 1000}

func bucketOf(count int) int {
	b := fig7Buckets[0]
	for _, edge := range fig7Buckets {
		if count >= edge {
			b = edge
		}
	}
	return b
}

// Print renders the three panels as bucketed medians.
func (r *Fig7Result) Print(w io.Writer) {
	type agg struct {
		bq, br, uq, ur []time.Duration
		instr          []uint64
		instrUnstable  []uint64
	}
	buckets := map[int]*agg{}
	for _, row := range r.Rows {
		b := bucketOf(row.UTXOCount)
		a := buckets[b]
		if a == nil {
			a = &agg{}
			buckets[b] = a
		}
		a.bq = append(a.bq, row.BalanceQuery)
		a.br = append(a.br, row.BalanceReplicated)
		a.uq = append(a.uq, row.UTXOsQuery)
		a.ur = append(a.ur, row.UTXOsReplicated)
		if row.Unstable {
			a.instrUnstable = append(a.instrUnstable, row.UTXOsInstructions)
		} else {
			a.instr = append(a.instr, row.UTXOsInstructions)
		}
	}
	fmt.Fprintln(w, "Figure 7 (left/center): median response time [s] by #UTXOs")
	fmt.Fprintf(w, "%-8s %14s %14s %14s %14s\n", "#UTXOs", "bal-query", "bal-repl", "utxo-query", "utxo-repl")
	for _, b := range fig7Buckets {
		a := buckets[b]
		if a == nil {
			continue
		}
		fmt.Fprintf(w, "%-8d %14.3f %14.3f %14.3f %14.3f\n", b,
			obs.SummarizeDurations(a.bq).P50.Seconds(), obs.SummarizeDurations(a.br).P50.Seconds(),
			obs.SummarizeDurations(a.uq).P50.Seconds(), obs.SummarizeDurations(a.ur).P50.Seconds())
	}
	fmt.Fprintln(w, "Figure 7 (right): median instructions [M] for replicated get_utxos")
	fmt.Fprintf(w, "%-8s %16s %18s\n", "#UTXOs", "stable-UTXOs", "unstable-UTXOs")
	for _, b := range fig7Buckets {
		a := buckets[b]
		if a == nil {
			continue
		}
		fmt.Fprintf(w, "%-8d %16.1f %18.1f\n", b,
			float64(obs.MedianU64(a.instr))/1e6, float64(obs.MedianU64(a.instrUnstable))/1e6)
	}
}
