package experiments

import (
	"fmt"
	"io"
	"sort"

	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
	"icbtc/internal/obs"
)

// Fig7Row is one address's measurements.
type Fig7Row struct {
	UTXOCount int
	// Instructions for the replicated get_utxos call.
	UTXOsInstructions uint64
	// Unstable marks addresses whose UTXOs live in unstable blocks (the
	// lower branch of the bifurcation).
	Unstable bool
}

// Fig7Result regenerates Figure 7 (right): instructions executed for
// replicated UTXO requests as a function of the UTXO-set size. The left and
// center panels' response times would be the subnet's latency envelope
// read back (see the package doc).
type Fig7Result struct {
	Rows []Fig7Row
}

const (
	// populationScale divides the paper's 1000-address population (100
	// addresses, keeping the paper's skew).
	populationScale = 10
	// unstableFraction of addresses get their UTXOs in recent (unstable)
	// blocks, producing the Fig 7 (right) bifurcation.
	unstableFraction = 0.3
)

// loadPopulation feeds the population into a fresh canister. Addresses
// marked unstable receive their outputs in blocks that stay within δ of the
// tip; everything else is pushed below the anchor.
func loadPopulation(seed int64) (*Feeder, *AddressPopulation, map[string]bool, error) {
	const delta = 6
	f := NewFeeder(btc.Regtest, delta, seed)
	pop := NewAddressPopulation(btc.Regtest, seed, populationScale)

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

// meterRequests loads the population and executes get_balance and
// get_utxos once per address through Canister.Update under a KindUpdate
// context, the dispatch the subnet makes for a replicated call. visit gets
// the address's UTXO count and each call's metered instructions; the loaded
// feeder is returned for further blocks.
func meterRequests(seed int64, visit func(unstable bool, utxos int, balanceInstr, utxosInstr uint64)) (*Feeder, error) {
	f, pop, unstable, err := loadPopulation(seed)
	if err != nil {
		return nil, err
	}
	call := func(method string, arg any) (any, uint64, error) {
		ctx := ic.NewCallContext(ic.KindUpdate, f.now)
		v, err := f.Canister.Update(ctx, method, arg)
		return v, ctx.Meter.Total(), err
	}
	for _, a := range pop.Addresses {
		_, balanceInstr, err := call("get_balance", canister.GetBalanceArgs{Address: a.Address})
		if err != nil {
			return nil, err
		}
		v, utxosInstr, err := call("get_utxos", canister.GetUTXOsArgs{Address: a.Address})
		if err != nil {
			return nil, err
		}
		r := v.(*canister.GetUTXOsResult)
		visit(unstable[a.Address], r.StableCount+r.UnstableCount, balanceInstr, utxosInstr)
	}
	return f, nil
}

// RunFig7 loads the skewed address population and meters a replicated
// get_utxos per address.
func RunFig7(seed int64) (*Fig7Result, error) {
	res := &Fig7Result{}
	_, err := meterRequests(seed, func(unstable bool, utxos int, _, utxosInstr uint64) {
		res.Rows = append(res.Rows, Fig7Row{UTXOCount: utxos, UTXOsInstructions: utxosInstr, Unstable: unstable})
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].UTXOCount < res.Rows[j].UTXOCount })
	return res, nil
}

// fig7Buckets are the figure's logarithmic x-axis buckets.
var fig7Buckets = []int{1, 2, 4, 10, 20, 40, 100, 200, 400, 1000}

// bucketOf maps a UTXO count to its fig7Buckets bucket.
func bucketOf(count int) int {
	b := fig7Buckets[0]
	for _, edge := range fig7Buckets {
		if count >= edge {
			b = edge
		}
	}
	return b
}

// Print renders the panel as bucketed medians.
func (r *Fig7Result) Print(w io.Writer) {
	type agg struct{ stable, unstable []uint64 }
	buckets := map[int]*agg{}
	for _, row := range r.Rows {
		b := bucketOf(row.UTXOCount)
		a := buckets[b]
		if a == nil {
			a = &agg{}
			buckets[b] = a
		}
		if row.Unstable {
			a.unstable = append(a.unstable, row.UTXOsInstructions)
		} else {
			a.stable = append(a.stable, row.UTXOsInstructions)
		}
	}
	fmt.Fprintln(w, "Figure 7 (right): median instructions [M] for replicated get_utxos")
	fmt.Fprintf(w, "%-8s %16s %18s\n", "#UTXOs", "stable-UTXOs", "unstable-UTXOs")
	for _, b := range fig7Buckets {
		a := buckets[b]
		if a == nil {
			continue
		}
		fmt.Fprintf(w, "%-8d %16.1f %18.1f\n", b,
			float64(obs.MedianU64(a.stable))/1e6, float64(obs.MedianU64(a.unstable))/1e6)
	}
}
