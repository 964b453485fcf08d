package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
)

// Read-path scenario: the paper's §III-C read path replays every unstable
// block per request, so get_utxos/get_balance cost grows linearly with δ
// (144 on mainnet ≈ one day of blocks). This experiment builds a mainnet-
// deep unstable chain over a skewed address workload on one canister and
// answers every request twice — by the canister's incremental overlay read
// path and by the retained naive-replay oracle (canister.Replay*) over the
// same state — measuring the metered instruction cost per request as the
// considered depth shrinks with the minConfirmations filter
// (depth = δ − c + 1 at the tip).

// ReadPathConfig parameterizes the scenario.
type ReadPathConfig struct {
	Seed int64
	// Delta is δ; the unstable chain is kept exactly this deep.
	Delta int64
	// StableBlocks funds the address population below the anchor.
	StableBlocks int
	// TxPerBlock is the number of transactions per unstable block.
	TxPerBlock int
	// SampleAddresses is how many addresses each depth point measures.
	SampleAddresses int
}

// DefaultReadPathConfig returns the mainnet-shaped configuration (δ=144).
func DefaultReadPathConfig() ReadPathConfig {
	return ReadPathConfig{
		Seed:            7,
		Delta:           144,
		StableBlocks:    12,
		TxPerBlock:      12,
		SampleAddresses: 8,
	}
}

// readPathAddresses is the population size; selection is skewed so a few
// hot addresses take most of the traffic (the Fig 7 population shape).
const readPathAddresses = 24

// ReadPathRow is one depth point, averaged over the sampled addresses.
type ReadPathRow struct {
	MinConfirmations int64
	// Depth is the number of unstable blocks the considered chain holds.
	Depth int64
	// Instruction averages per request.
	BalanceOracle, BalanceOverlay uint64
	UTXOsOracle, UTXOsOverlay     uint64
}

// ReadPathResult carries the depth sweep plus ingestion-side accounting.
type ReadPathResult struct {
	Rows []ReadPathRow
	// BalanceCacheHitInstr is the metered cost of a get_balance served from
	// the overlay's coherent per-address cache.
	BalanceCacheHitInstr uint64
	// DeltaBuildShare is the fraction of overlay ingestion instructions
	// spent building per-block deltas (the one-time cost that amortizes the
	// per-request scans away).
	DeltaBuildShare float64
}

// BalanceSpeedupAtFullDepth returns the oracle/overlay instruction ratio
// for get_balance at the deepest point (minConfirmations = 1).
func (r *ReadPathResult) BalanceSpeedupAtFullDepth() float64 {
	row := r.Rows[0]
	return float64(row.BalanceOracle) / float64(row.BalanceOverlay)
}

// UTXOsSpeedupAtFullDepth is the same ratio for get_utxos.
func (r *ReadPathResult) UTXOsSpeedupAtFullDepth() float64 {
	row := r.Rows[0]
	return float64(row.UTXOsOracle) / float64(row.UTXOsOverlay)
}

// OverlayDepthScaling returns overlay get_balance cost at full depth over
// its cost at depth 1 — near 1.0 means the δ-linear term is gone.
func (r *ReadPathResult) OverlayDepthScaling() float64 {
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	return float64(first.BalanceOverlay) / float64(last.BalanceOverlay)
}

// OracleDepthScaling is the same ratio for the replay oracle — the paper's
// linear-in-δ behavior.
func (r *ReadPathResult) OracleDepthScaling() float64 {
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	return float64(first.BalanceOracle) / float64(last.BalanceOracle)
}

// RunReadPath executes the scenario.
func RunReadPath(cfg ReadPathConfig) (*ReadPathResult, error) {
	params := btc.ParamsForNetwork(btc.Regtest)
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Skewed population: address i is picked with weight ~ 1/(i+1).
	type popEntry struct {
		address string
		script  []byte
	}
	pop := make([]popEntry, readPathAddresses)
	for i := range pop {
		var h [20]byte
		rng.Read(h[:])
		a := btc.NewP2PKHAddress(h, btc.Regtest)
		pop[i] = popEntry{address: a.String(), script: btc.PayToAddrScript(a)}
	}
	pick := func() popEntry {
		// Harmonic-ish skew: repeatedly halve the candidate range.
		n := readPathAddresses
		for n > 1 && rng.Intn(2) == 0 {
			n = (n + 1) / 2
		}
		return pop[rng.Intn(n)]
	}

	ccfg := canister.DefaultConfig(btc.Regtest)
	ccfg.StabilityThreshold = cfg.Delta
	overlay := canister.New(ccfg)

	// Feed the blocks, metering ingestion so the delta-build overhead can be
	// reported.
	builder := NewBlockBuilder(params, cfg.Seed)
	now := time.Unix(1_700_000_000, 0).UTC()
	overlayIngest := ic.NewMeter()
	feed := func(specs []TxSpec) error {
		block, err := builder.NextBlock(specs)
		if err != nil {
			return err
		}
		now = now.Add(time.Minute)
		payload := adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: block, Header: block.Header}}}
		return overlay.ProcessPayload(&ic.CallContext{Meter: overlayIngest, Time: now, Kind: ic.KindUpdate}, payload)
	}

	blockSpecs := func() []TxSpec {
		specs := make([]TxSpec, 0, cfg.TxPerBlock)
		for t := 0; t < cfg.TxPerBlock; t++ {
			e := pick()
			specs = append(specs, TxSpec{
				Inputs:  rng.Intn(2),
				Outputs: PayN(e.script, 1+rng.Intn(2), 546+int64(rng.Intn(5000))),
			})
		}
		return specs
	}

	// Funding prefix (ends up below the anchor), then enough blocks on top
	// that the anchor trails the tip by δ−1, the deepest unstable chain the
	// δ-stability rule sustains with equal-work blocks.
	for i := 0; i < cfg.StableBlocks; i++ {
		var specs []TxSpec
		for _, e := range pop {
			specs = append(specs, TxSpec{Outputs: PayN(e.script, 1, 546)})
		}
		if err := feed(specs); err != nil {
			return nil, err
		}
	}
	for i := int64(0); i < cfg.Delta; i++ {
		if err := feed(blockSpecs()); err != nil {
			return nil, err
		}
	}
	if got := overlay.TipHeight() - overlay.AnchorHeight(); got != cfg.Delta-1 {
		return nil, fmt.Errorf("experiments: unstable depth %d, want δ-1=%d", got, cfg.Delta-1)
	}

	res := &ReadPathResult{
		DeltaBuildShare: float64(overlayIngest.Category("build_delta")) / float64(overlayIngest.Total()),
	}

	// Depth sweep via the confirmations filter: at the tip, minConf = c
	// restricts the considered chain to δ − c unstable blocks.
	// Sample without replacement: a repeated (address, minConf) pair would
	// land in the overlay's balance cache and no longer measure the merge.
	perm := rng.Perm(len(pop))
	n := cfg.SampleAddresses
	if n > len(pop) {
		n = len(pop)
	}
	sample := make([]popEntry, n)
	for i := range sample {
		sample[i] = pop[perm[i]]
	}
	sweep := []int64{1, cfg.Delta / 4, cfg.Delta / 2, 3 * cfg.Delta / 4, cfg.Delta}
	for _, minConf := range sweep {
		row := ReadPathRow{MinConfirmations: minConf, Depth: cfg.Delta - minConf}
		for _, e := range sample {
			balArgs := canister.GetBalanceArgs{Address: e.address, MinConfirmations: minConf}
			utxoArgs := canister.GetUTXOsArgs{Address: e.address, MinConfirmations: minConf}

			m := ic.NewMeter()
			if _, err := canister.ReplayBalance(overlay, &ic.CallContext{Meter: m, Time: now, Kind: ic.KindQuery}, balArgs); err != nil {
				return nil, err
			}
			row.BalanceOracle += m.Total()

			m = ic.NewMeter()
			if _, err := overlay.GetBalance(&ic.CallContext{Meter: m, Time: now, Kind: ic.KindQuery}, balArgs); err != nil {
				return nil, err
			}
			row.BalanceOverlay += m.Total()

			m = ic.NewMeter()
			if _, err := canister.ReplayUTXOs(overlay, &ic.CallContext{Meter: m, Time: now, Kind: ic.KindQuery}, utxoArgs); err != nil {
				return nil, err
			}
			row.UTXOsOracle += m.Total()

			m = ic.NewMeter()
			if _, err := overlay.GetUTXOs(&ic.CallContext{Meter: m, Time: now, Kind: ic.KindQuery}, utxoArgs); err != nil {
				return nil, err
			}
			row.UTXOsOverlay += m.Total()
		}
		n := uint64(len(sample))
		row.BalanceOracle /= n
		row.BalanceOverlay /= n
		row.UTXOsOracle /= n
		row.UTXOsOverlay /= n
		res.Rows = append(res.Rows, row)
	}

	// The first depth-1 repeat query lands in the overlay's balance cache.
	hit := ic.NewMeter()
	if _, err := overlay.GetBalance(&ic.CallContext{Meter: hit, Time: now, Kind: ic.KindQuery},
		canister.GetBalanceArgs{Address: sample[0].address, MinConfirmations: 1}); err != nil {
		return nil, err
	}
	res.BalanceCacheHitInstr = hit.Total()
	return res, nil
}

// Print renders the depth sweep.
func (r *ReadPathResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Read path: instructions [M] per request vs unstable depth")
	fmt.Fprintf(w, "%-6s %-6s | %10s %10s %7s | %10s %10s %7s\n",
		"c", "depth", "bal-oracle", "bal-ovl", "x", "utxo-oracle", "utxo-ovl", "x")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-6d %-6d | %10.2f %10.2f %6.1fx | %10.2f %10.2f %6.1fx\n",
			row.MinConfirmations, row.Depth,
			float64(row.BalanceOracle)/1e6, float64(row.BalanceOverlay)/1e6,
			float64(row.BalanceOracle)/float64(row.BalanceOverlay),
			float64(row.UTXOsOracle)/1e6, float64(row.UTXOsOverlay)/1e6,
			float64(row.UTXOsOracle)/float64(row.UTXOsOverlay))
	}
	fmt.Fprintf(w, "balance cache hit: %.2f M instructions\n", float64(r.BalanceCacheHitInstr)/1e6)
	fmt.Fprintf(w, "delta build share of overlay ingestion: %.1f%%\n", r.DeltaBuildShare*100)
}
