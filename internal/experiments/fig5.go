package experiments

import (
	"fmt"
	"io"

	"icbtc/internal/btc"
)

// Fig5Row is one weekly sample of UTXO-set growth.
type Fig5Row struct {
	Week         int
	UTXOCount    int
	StorageBytes int64
}

// Fig5Result is the regenerated Figure 5: "The growth of the UTXO set and
// the Bitcoin canister space consumption ... over the span of two years."
type Fig5Result struct {
	Rows []Fig5Row
	// ScaleDivisor relates the simulated population to mainnet's (the paper
	// ends at ~170 M UTXOs; the simulation ends at ~170 M / ScaleDivisor).
	ScaleDivisor int
}

// Fig5Config parameterizes the growth workload.
type Fig5Config struct {
	// Weeks of simulated history (the paper's figure spans ~104).
	Weeks int
	Seed  int64
}

// The growth workload's shape, the same on every run.
const (
	// fig5BlocksPerWeek compresses a week's 1008 blocks into fewer, larger
	// steps (total growth is what matters, not block cadence).
	fig5BlocksPerWeek = 6
	// fig5NetNewUTXOsPerBlock is the average growth per block: outputs
	// created minus inputs spent. Mainnet's UTXO set grows on the order of
	// 2-3 % per month, which this reproduces at scale.
	fig5NetNewUTXOsPerBlock = 250
	// fig5SpendFraction is the fraction of each block's transactions that
	// consume existing outputs (churn without net growth).
	fig5SpendFraction = 0.3
)

// DefaultFig5Config returns a laptop-scale two-year run (~1/1000 mainnet).
func DefaultFig5Config() Fig5Config {
	return Fig5Config{Weeks: 104, Seed: 5}
}

// RunFig5 regenerates Figure 5 by replaying two years of synthetic traffic
// through the Bitcoin canister and sampling |U| and its storage footprint
// weekly.
func RunFig5(cfg Fig5Config) (*Fig5Result, error) {
	f := NewFeeder(btc.Regtest, 6, cfg.Seed)
	script := btc.PayToPubKeyHashScript([20]byte{0x05})
	res := &Fig5Result{ScaleDivisor: 1000}
	for week := 1; week <= cfg.Weeks; week++ {
		for b := 0; b < fig5BlocksPerWeek; b++ {
			spends := int(float64(fig5NetNewUTXOsPerBlock) * fig5SpendFraction)
			specs := []TxSpec{
				// Growth: one fat transaction creating the net-new outputs.
				{Inputs: 0, Outputs: PayN(script, fig5NetNewUTXOsPerBlock, 546)},
				// Churn: spend existing outputs, recreate the same number.
				{Inputs: spends, Outputs: PayN(script, spends, 546)},
			}
			if _, err := f.FeedBlock(specs); err != nil {
				return nil, err
			}
		}
		res.Rows = append(res.Rows, Fig5Row{
			Week:         week,
			UTXOCount:    f.Canister.StableUTXOCount(),
			StorageBytes: f.Canister.StableStorageBytes(),
		})
	}
	return res, nil
}

// Print renders the figure data as the paper's two series.
func (r *Fig5Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 5: UTXO count and canister storage over two years (scale 1:%d vs mainnet)\n", r.ScaleDivisor)
	fmt.Fprintf(w, "%-6s %12s %14s %16s\n", "week", "UTXOs", "storage[MiB]", "scaled-to-mainnet")
	for i, row := range r.Rows {
		if i%8 != 0 && i != len(r.Rows)-1 {
			continue // print every 8th week plus the last
		}
		fmt.Fprintf(w, "%-6d %12d %14.2f %13d M\n",
			row.Week, row.UTXOCount, float64(row.StorageBytes)/(1<<20),
			row.UTXOCount*r.ScaleDivisor/1_000_000)
	}
	last := r.Rows[len(r.Rows)-1]
	fmt.Fprintf(w, "final: %d UTXOs, %.2f MiB — paper reports ~170 M UTXOs / ~103 GiB at the same point\n",
		last.UTXOCount, float64(last.StorageBytes)/(1<<20))
}

// LinearityError reports how far storage growth deviates from linear in the
// UTXO count (Fig 5's claim: the two series track each other). It returns
// the max relative deviation of bytes-per-UTXO from its mean.
func (r *Fig5Result) LinearityError() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	var sum float64
	var n int
	for _, row := range r.Rows {
		if row.UTXOCount > 0 {
			sum += float64(row.StorageBytes) / float64(row.UTXOCount)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	mean := sum / float64(n)
	worst := 0.0
	for _, row := range r.Rows {
		if row.UTXOCount == 0 {
			continue
		}
		ratio := float64(row.StorageBytes) / float64(row.UTXOCount)
		dev := (ratio - mean) / mean
		if dev < 0 {
			dev = -dev
		}
		if dev > worst {
			worst = dev
		}
	}
	return worst
}
