package experiments

import (
	"fmt"
	"io"

	"icbtc/internal/btc"
	"icbtc/internal/ic"
)

// CostResult reproduces the in-text cost arithmetic of §IV-B:
//
//	"At the current exchange rate, approximately 35,000 (1,500) requests
//	 for balances (UTXOs) can be made for 1 U.S. dollar."
type CostResult struct {
	// Average metered instructions per request over the population.
	BalanceInstructions, UTXOsInstructions uint64
	// Requests affordable for one U.S. dollar.
	BalancePerUSD, UTXOsPerUSD float64
	// Block ingestion, for the Fig 6 cross-check.
	IngestionInstructions uint64
}

// RunCost measures the average request cost over the skewed population and
// converts it to requests-per-dollar using the cycle price model.
func RunCost(seed int64) (*CostResult, error) {
	var balSum, utxoSum, n uint64
	f, err := meterRequests(seed, func(_ bool, _ int, balanceInstr, utxosInstr uint64) {
		balSum += balanceInstr
		utxoSum += utxosInstr
		n++
	})
	if err != nil {
		return nil, err
	}
	res := &CostResult{
		BalanceInstructions: balSum / n,
		UTXOsInstructions:   utxoSum / n,
	}
	// Replicated requests execute on every replica of the subnet; the fee
	// covers all of them (the paper's prices are for replicated calls).
	const replicationFactor = 13
	res.BalancePerUSD = 1.0 / ic.InstructionsToUSD(res.BalanceInstructions*replicationFactor)
	res.UTXOsPerUSD = 1.0 / ic.InstructionsToUSD(res.UTXOsInstructions*replicationFactor)

	// One representative block ingestion for the Fig 6 cross-check (a full
	// block is ~5400 UTXO-set operations).
	script := btc.PayToPubKeyHashScript([20]byte{0x0C})
	for i := 0; i < 8; i++ {
		if _, err := f.FeedBlock([]TxSpec{{Inputs: 0, Outputs: PayN(script, 5400, 546)}}); err != nil {
			return nil, err
		}
	}
	cost, err := f.FeedBlock([]TxSpec{{Inputs: 0, Outputs: PayN(script, 5400, 546)}})
	if err != nil {
		return nil, err
	}
	res.IngestionInstructions = cost.Instructions
	return res, nil
}

// Print renders the comparison with the paper.
func (r *CostResult) Print(w io.Writer) {
	fmt.Fprintln(w, "In-text request cost (§IV-B)")
	fmt.Fprintf(w, "%-36s %14s %12s\n", "metric", "measured", "paper")
	fmt.Fprintf(w, "%-36s %14.1f %12s\n", "avg get_balance instructions [M]", float64(r.BalanceInstructions)/1e6, "-")
	fmt.Fprintf(w, "%-36s %14.1f %12s\n", "avg get_utxos instructions [M]", float64(r.UTXOsInstructions)/1e6, "5.8-476")
	fmt.Fprintf(w, "%-36s %14.0f %12s\n", "balance requests per USD", r.BalancePerUSD, "~35,000")
	fmt.Fprintf(w, "%-36s %14.0f %12s\n", "UTXO requests per USD", r.UTXOsPerUSD, "~1,500")
	fmt.Fprintf(w, "%-36s %14.1f %12s\n", "block ingestion [B instructions]", float64(r.IngestionInstructions)/1e9, "~21.6")
}
