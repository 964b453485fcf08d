package experiments

import (
	"fmt"
	"io"
	"time"

	"icbtc/internal/canister"
	"icbtc/internal/ic"
	"icbtc/internal/obs"
	"icbtc/internal/simnet"
)

// LatencyResult reproduces the in-text latency distribution of §IV-B:
//
//	"On average, replicated requests take below 10s to be answered, with
//	 the minimum around 7s and a 90th percentile of 18s. For queries ...
//	 the median time to get a balance or UTXOs is about 220ms and 310ms,
//	 and 90% of the response times are below 0.5s and 2.5s."
type LatencyResult struct {
	ReplicatedMin, ReplicatedAvg, ReplicatedP90       time.Duration
	QueryBalanceMedian, QueryBalanceP90               time.Duration
	QueryUTXOsMedian, QueryUTXOsP90                   time.Duration
	ReplicatedSamples, QueryBalanceN, QueryUTXOsCount int
}

// LatencyConfig parameterizes the measurement.
type LatencyConfig struct {
	// Scale divides the address population (see Fig7Config.Scale).
	Scale int
	Seed  int64
}

// DefaultLatencyConfig returns the laptop-scale run.
func DefaultLatencyConfig() LatencyConfig { return LatencyConfig{Scale: 10, Seed: 11} }

// RunLatency loads the Fig 7 population and measures the latency
// distribution of replicated and query requests under the default
// (mainnet-flavored) subnet configuration.
func RunLatency(cfg LatencyConfig) (*LatencyResult, error) {
	f, pop, _, err := loadPopulation(Fig7Config{Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	sched := simnet.NewScheduler(cfg.Seed)
	subCfg := ic.DefaultConfig()
	subCfg.DisableThresholdKeys = true
	subCfg.Seed = cfg.Seed
	subnet, err := ic.NewSubnet(sched, subCfg)
	if err != nil {
		return nil, err
	}
	subnet.InstallCanister("bitcoin", f.Canister)
	subnet.Start()

	var replicated, qBalance, qUTXOs []time.Duration
	done := 0
	// Spread submissions over time like real traffic (requests arriving in
	// a burst would all wait for the same blocks and bias the tail).
	for i, a := range pop.Addresses {
		a := a
		delay := time.Duration(i) * 800 * time.Millisecond
		sched.After(delay, func() {
			subnet.SubmitUpdate("bitcoin", "get_balance", canister.GetBalanceArgs{Address: a.Address}, "bench", func(r ic.Result) {
				replicated = append(replicated, r.Latency)
				done++
			})
			subnet.SubmitUpdate("bitcoin", "get_utxos", canister.GetUTXOsArgs{Address: a.Address}, "bench", func(r ic.Result) {
				replicated = append(replicated, r.Latency)
				done++
			})
			subnet.Query("bitcoin", "get_balance", canister.GetBalanceArgs{Address: a.Address}, "bench", func(r ic.Result) {
				qBalance = append(qBalance, r.Latency)
				done++
			})
			subnet.Query("bitcoin", "get_utxos", canister.GetUTXOsArgs{Address: a.Address}, "bench", func(r ic.Result) {
				qUTXOs = append(qUTXOs, r.Latency)
				done++
			})
		})
	}
	want := len(pop.Addresses) * 4
	budget := sched.Now().Add(6 * time.Hour)
	for done < want && sched.Now().Before(budget) {
		sched.RunFor(5 * time.Second)
	}
	if done < want {
		return nil, fmt.Errorf("experiments: latency run timed out with %d/%d", done, want)
	}

	res := &LatencyResult{
		ReplicatedSamples: len(replicated),
		QueryBalanceN:     len(qBalance),
		QueryUTXOsCount:   len(qUTXOs),
	}
	rs := obs.SummarizeDurations(replicated)
	res.ReplicatedMin, res.ReplicatedAvg, res.ReplicatedP90 = rs.Min, rs.Mean, rs.P90
	bs := obs.SummarizeDurations(qBalance)
	res.QueryBalanceMedian, res.QueryBalanceP90 = bs.P50, bs.P90
	us := obs.SummarizeDurations(qUTXOs)
	res.QueryUTXOsMedian, res.QueryUTXOsP90 = us.P50, us.P90
	return res, nil
}

// Print renders the distribution next to the paper's numbers.
func (r *LatencyResult) Print(w io.Writer) {
	fmt.Fprintln(w, "In-text latency distribution (§IV-B)")
	fmt.Fprintf(w, "%-34s %10s %10s\n", "metric", "measured", "paper")
	fmt.Fprintf(w, "%-34s %9.1fs %10s\n", "replicated min", r.ReplicatedMin.Seconds(), "~7s")
	fmt.Fprintf(w, "%-34s %9.1fs %10s\n", "replicated avg", r.ReplicatedAvg.Seconds(), "<10s")
	fmt.Fprintf(w, "%-34s %9.1fs %10s\n", "replicated p90", r.ReplicatedP90.Seconds(), "~18s")
	fmt.Fprintf(w, "%-34s %8.0fms %10s\n", "query get_balance median", float64(r.QueryBalanceMedian.Milliseconds()), "~220ms")
	fmt.Fprintf(w, "%-34s %8.0fms %10s\n", "query get_balance p90", float64(r.QueryBalanceP90.Milliseconds()), "<500ms")
	fmt.Fprintf(w, "%-34s %8.0fms %10s\n", "query get_utxos median", float64(r.QueryUTXOsMedian.Milliseconds()), "~310ms")
	fmt.Fprintf(w, "%-34s %8.1fs %10s\n", "query get_utxos p90", r.QueryUTXOsP90.Seconds(), "<2.5s")
}
