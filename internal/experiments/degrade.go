package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"icbtc/internal/chaos"
	"icbtc/internal/simnet"
)

// DegradeConfig parameterizes the network-degradation recovery sweep: the
// chaos harness run at a ladder of adapter-link loss rates, measuring rounds
// to reconverge with the honest chain after the links heal.
type DegradeConfig struct {
	// Seed is the first seed; run k of a rate uses Seed+k.
	Seed int64
	// Runs per loss rate. A single seed's recovery time is dominated by
	// where the retry backoff schedule happens to land relative to the heal
	// round, so the table reports mean and max over Runs seeds.
	Runs int
	// LossRates is the ladder of per-message loss probabilities applied to
	// every adapter link (both directions). 0 is the healthy baseline.
	LossRates []float64
}

// DefaultDegradeConfig sweeps from healthy to a severely lossy uplink. 0.55
// matches the top of the loss-ramp chaos scenario; past ~0.6 a 3-message
// round trip succeeds <6% of the time and recovery times stop being
// informative within the harness's 60-round budget.
func DefaultDegradeConfig() DegradeConfig {
	return DegradeConfig{Seed: 7, Runs: 3, LossRates: []float64{0, 0.10, 0.25, 0.40, 0.55}}
}

// DegradeRow is one loss rate's recovery measurement across Runs seeds.
type DegradeRow struct {
	LossRate        float64
	HealRound       int
	RecoveryAvg     float64
	RecoveryMax     int
	OracleIdentical bool // across every run
	FinalHeight     int64
}

// DegradeResult is the `bench -fig degrade` table.
type DegradeResult struct {
	Seed int64
	Runs int
	Rows []DegradeRow
}

// RunDegrade runs the chaos harness Runs times per loss rate with an ad-hoc
// scenario (built on the fly, not in chaos's table) that holds the rate on
// every adapter link through chaos's fault window, from chaos.InjectRound to
// chaos.HealRound. All of the harness's per-round invariants apply: the
// sweep measures recovery time of a state that provably never diverged from
// the loss-free oracle.
func RunDegrade(cfg DegradeConfig) (*DegradeResult, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	res := &DegradeResult{Seed: cfg.Seed, Runs: cfg.Runs}
	for _, rate := range cfg.LossRates {
		rate := rate
		s := chaos.Scenario{
			Name:        fmt.Sprintf("degrade-loss-%d", int(rate*100)),
			Description: fmt.Sprintf("%.0f%% loss on every adapter link from round %d to %d", rate*100, chaos.InjectRound, chaos.HealRound),
			Step: func(w *chaos.World, round int) error {
				switch round {
				case chaos.InjectRound:
					if rate > 0 {
						w.DegradeAdapterLinks(&simnet.LinkProfile{LossRate: rate})
					}
				case chaos.HealRound:
					if rate > 0 {
						w.DegradeAdapterLinks(nil)
					}
					w.SetHealed(chaos.HealRound)
				}
				return nil
			},
		}
		row := DegradeRow{LossRate: rate, OracleIdentical: true}
		total := 0
		for k := 0; k < cfg.Runs; k++ {
			r, err := chaos.Run(s, chaos.DefaultConfig(cfg.Seed+int64(k)))
			if err != nil {
				return nil, err
			}
			row.HealRound = r.HealRound
			row.OracleIdentical = row.OracleIdentical && r.OracleIdentical
			row.FinalHeight = r.FinalHeight
			total += r.RecoveryRounds
			if r.RecoveryRounds > row.RecoveryMax {
				row.RecoveryMax = r.RecoveryRounds
			}
		}
		row.RecoveryAvg = float64(total) / float64(cfg.Runs)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print renders the recovery-vs-loss table.
func (r *DegradeResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Degraded-link recovery (seeds %d..%d): rounds to reconverge vs adapter-link loss rate\n",
		r.Seed, r.Seed+int64(r.Runs)-1)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "loss\theal@\trecovery avg\trecovery max\toracle-identical\theight")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%.0f%%\t%d\t%.1f\t%d\t%v\t%d\n",
			row.LossRate*100, row.HealRound, row.RecoveryAvg, row.RecoveryMax,
			row.OracleIdentical, row.FinalHeight)
	}
	tw.Flush()
}
