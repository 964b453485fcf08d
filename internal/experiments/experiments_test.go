package experiments

import (
	"bytes"
	"math"
	"testing"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
	"icbtc/internal/simnet"
)

func TestBlockBuilderProducesValidChain(t *testing.T) {
	f := NewFeeder(btc.Regtest, 6, 1)
	script := btc.PayToPubKeyHashScript([20]byte{1})
	for i := 0; i < 12; i++ {
		cost, err := f.FeedBlock([]TxSpec{{Inputs: 1, Outputs: PayN(script, 3, 546)}})
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if cost.Height != int64(i+1) {
			t.Fatalf("height %d", cost.Height)
		}
	}
	// All 12 blocks must have been ingested by the canister (none rejected)
	// and the anchor advanced past δ.
	if f.Canister.IngestedBlocks() != 12 {
		t.Fatalf("ingested %d", f.Canister.IngestedBlocks())
	}
	// Anchor at 12-δ+1 = 7 (depth of h7 is exactly δ=6).
	if f.Canister.AnchorHeight() != 7 {
		t.Fatalf("anchor %d", f.Canister.AnchorHeight())
	}
	if !f.Canister.Synced() {
		t.Fatal("not synced")
	}
}

func TestBlockBuilderSpendsTrackedOutputs(t *testing.T) {
	f := NewFeeder(btc.Regtest, 6, 2)
	script := btc.PayToPubKeyHashScript([20]byte{2})
	if _, err := f.FeedBlock([]TxSpec{{Outputs: PayN(script, 10, 546)}}); err != nil {
		t.Fatal(err)
	}
	before := f.Builder.SpendableOutputs()
	if _, err := f.FeedBlock([]TxSpec{{Inputs: 4, Outputs: PayN(script, 1, 546)}}); err != nil {
		t.Fatal(err)
	}
	// 4 spent, 1 tx output + 1 coinbase created.
	if got := f.Builder.SpendableOutputs(); got != before-4+2 {
		t.Fatalf("spendable %d, want %d", got, before-2)
	}
}

// TestBlockBuilderBytes pins the builder's output to the bytes it produced at
// 2f1488b, before its block assembly moved to btcnode.Forge (hashes computed
// there and pasted): three empty blocks, then one whose two specs exercise the
// pool draw and the fabricated input. The benchmark fixture, the golden v1
// snapshot and figures.golden are all built from these bytes.
func TestBlockBuilderBytes(t *testing.T) {
	b := NewBlockBuilder(btc.RegtestParams(), 7)
	script := btc.PayToPubKeyHashScript([20]byte{0x42})
	blocks := []struct {
		specs []TxSpec
		want  string
	}{
		{nil, "591d40ef2845bd9b14ec5d5ffd3e6382e7fa01680357d67c01080ac057e766be"},
		{nil, "5c4e9d4ef88e7ead23ebcdbc21ca791b72e4b0ad44f35546bb4c5100ada31a6b"},
		{nil, "349efb9a29ffd0b4a569536fd40ee64e87b29369f3f854f731b73f90dc802117"},
		{[]TxSpec{{Inputs: 2, Outputs: PayN(script, 3, 1000)}, {Outputs: PayN(script, 1, 7)}},
			"07b954e791bc4accbc6db3cad10dca84cb21fc49282af65aa5621cb6673e997e"},
	}
	for i, bk := range blocks {
		blk, err := b.NextBlock(bk.specs)
		if err != nil {
			t.Fatal(err)
		}
		if got := blk.BlockHash().String(); got != bk.want {
			t.Errorf("block %d: hash %s, want %s", i+1, got, bk.want)
		}
	}
	if b.Height() != 4 || b.SpendableOutputs() != 6 {
		t.Errorf("height %d with %d spendable outputs, want 4 and 6", b.Height(), b.SpendableOutputs())
	}
}

func TestAddressPopulationSkew(t *testing.T) {
	pop := NewAddressPopulation(btc.Regtest, 3, 1)
	if len(pop.Addresses) != 1000 {
		t.Fatalf("population %d", len(pop.Addresses))
	}
	var small, mid, large, huge int
	for _, a := range pop.Addresses {
		switch {
		case a.Count < 50:
			small++
		case a.Count < 200:
			mid++
		case a.Count < 1000:
			large++
		default:
			huge++
		}
	}
	if small != 517 || mid != 159 || large != 113 || huge != 211 {
		t.Fatalf("skew %d/%d/%d/%d, want 517/159/113/211", small, mid, large, huge)
	}
	if pop.TotalUTXOs() <= 0 {
		t.Fatal("no UTXOs")
	}
	// Scaled population preserves the shape.
	scaled := NewAddressPopulation(btc.Regtest, 3, 10)
	if len(scaled.Addresses) < 90 || len(scaled.Addresses) > 110 {
		t.Fatalf("scaled population %d", len(scaled.Addresses))
	}
}

func TestFig5GrowthShape(t *testing.T) {
	cfg := DefaultFig5Config()
	cfg.Weeks = 30 // shorter for the unit test; the bench runs the full span
	res, err := RunFig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 30 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	// Monotone growth of both series.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].UTXOCount < res.Rows[i-1].UTXOCount {
			t.Fatal("UTXO count not monotone")
		}
		if res.Rows[i].StorageBytes < res.Rows[i-1].StorageBytes {
			t.Fatal("storage not monotone")
		}
	}
	// Storage tracks the UTXO count linearly (the paper's two series move
	// together).
	if dev := res.LinearityError(); dev > 0.1 {
		t.Fatalf("storage deviates %.1f%% from linear in UTXOs", dev*100)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestFig6IngestionShape(t *testing.T) {
	cfg := DefaultFig6Config()
	cfg.Days = 60
	res, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Average in the paper's ballpark (21.6 B ± generous band — the shape,
	// not the constant, is the claim).
	avg := float64(res.AvgInstructions) / 1e9
	if avg < 8 || avg > 40 {
		t.Fatalf("average ingestion %.1f B instructions outside [8,40]", avg)
	}
	// Roughly half the cost in insertions, half in removals (Fig 6 right).
	ins, rem := res.SplitFractions()
	if ins < 0.3 || ins > 0.65 || rem < 0.3 || rem > 0.65 {
		t.Fatalf("split %.2f/%.2f not roughly half/half", ins, rem)
	}
	if ins+rem < 0.8 {
		t.Fatalf("insert+remove only %.2f of total", ins+rem)
	}
	// Cost varies with block size (the figure's spread): min well below max.
	var min, max uint64 = math.MaxUint64, 0
	for _, row := range res.Rows {
		if row.Instructions < min {
			min = row.Instructions
		}
		if row.Instructions > max {
			max = row.Instructions
		}
	}
	if float64(max) < 1.5*float64(min) {
		t.Fatalf("no spread: min %d max %d", min, max)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestFig7Shape(t *testing.T) {
	cfg := DefaultFig7Config()
	cfg.Scale = 20 // ~50 addresses: fast but covers all buckets
	res, err := RunFig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Query latency must grow with UTXO count: compare the small and large
	// thirds.
	third := len(res.Rows) / 3
	if third > 0 {
		var smallSum, largeSum time.Duration
		for _, row := range res.Rows[:third] {
			smallSum += row.UTXOsQuery
		}
		for _, row := range res.Rows[len(res.Rows)-third:] {
			largeSum += row.UTXOsQuery
		}
		if largeSum <= smallSum {
			t.Fatal("query latency does not grow with UTXO count")
		}
	}
	for _, row := range res.Rows {
		// Replicated calls dominated by consensus: several seconds.
		if row.BalanceReplicated < 3*time.Second {
			t.Fatalf("replicated balance %v implausibly fast", row.BalanceReplicated)
		}
		// Queries far faster than replicated calls.
		if row.BalanceQuery >= row.BalanceReplicated {
			t.Fatal("query not faster than replicated")
		}
		if row.UTXOsInstructions == 0 {
			t.Fatal("no instructions recorded")
		}
	}
	// Bifurcation: an unstable address's instructions are below a stable
	// address's at a comparable UTXO count.
	var stableSamples, unstableSamples []Fig7Row
	for _, row := range res.Rows {
		if row.UTXOCount >= 100 && row.UTXOCount <= 1100 {
			if row.Unstable {
				unstableSamples = append(unstableSamples, row)
			} else {
				stableSamples = append(stableSamples, row)
			}
		}
	}
	if len(stableSamples) > 0 && len(unstableSamples) > 0 {
		var sPer, uPer float64
		for _, s := range stableSamples {
			sPer += float64(s.UTXOsInstructions) / float64(s.UTXOCount)
		}
		sPer /= float64(len(stableSamples))
		for _, u := range unstableSamples {
			uPer += float64(u.UTXOsInstructions) / float64(u.UTXOCount)
		}
		uPer /= float64(len(unstableSamples))
		if uPer >= sPer {
			t.Fatalf("no bifurcation: unstable %.0f/UTXO vs stable %.0f/UTXO", uPer, sPer)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestLatencyDistribution(t *testing.T) {
	cfg := DefaultLatencyConfig()
	cfg.Scale = 25 // ~40 addresses
	res, err := RunLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper bands with tolerance: min ≈7s → [4,11]; avg <10s → <15s;
	// p90 ≈18s → [8,30].
	if res.ReplicatedMin < 4*time.Second || res.ReplicatedMin > 11*time.Second {
		t.Fatalf("replicated min %v", res.ReplicatedMin)
	}
	if res.ReplicatedAvg > 15*time.Second {
		t.Fatalf("replicated avg %v", res.ReplicatedAvg)
	}
	if res.ReplicatedP90 < res.ReplicatedAvg || res.ReplicatedP90 > 30*time.Second {
		t.Fatalf("replicated p90 %v (avg %v)", res.ReplicatedP90, res.ReplicatedAvg)
	}
	// Query medians: hundreds of milliseconds; UTXOs slower than balance.
	if res.QueryBalanceMedian > time.Second {
		t.Fatalf("balance median %v", res.QueryBalanceMedian)
	}
	if res.QueryUTXOsMedian < res.QueryBalanceMedian {
		t.Fatalf("utxos median %v below balance median %v", res.QueryUTXOsMedian, res.QueryBalanceMedian)
	}
	if res.QueryUTXOsP90 > 5*time.Second {
		t.Fatalf("utxos p90 %v", res.QueryUTXOsP90)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestCostArithmetic(t *testing.T) {
	res, err := RunCost(13)
	if err != nil {
		t.Fatal(err)
	}
	// Orders of magnitude per the paper: tens of thousands of balance
	// requests per dollar, ~20x fewer UTXO requests.
	if res.BalancePerUSD < 5_000 || res.BalancePerUSD > 500_000 {
		t.Fatalf("balance/USD %.0f", res.BalancePerUSD)
	}
	if res.UTXOsPerUSD < 300 || res.UTXOsPerUSD > 50_000 {
		t.Fatalf("utxos/USD %.0f", res.UTXOsPerUSD)
	}
	if res.UTXOsPerUSD >= res.BalancePerUSD {
		t.Fatal("UTXO requests not more expensive than balance requests")
	}
	if got := float64(res.IngestionInstructions) / 1e9; got < 8 || got > 40 {
		t.Fatalf("ingestion %.1f B", got)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestEclipseMonteCarloMatchesAnalytical(t *testing.T) {
	res := RunEclipse(30_000, 17)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		// MC within 3 standard errors + small absolute slack of analytic.
		se := math.Sqrt(row.PAdapterAna*(1-row.PAdapterAna)/float64(res.Trials)) + 1e-4
		if diff := math.Abs(row.PAdapterMC - row.PAdapterAna); diff > 3*se+0.01 {
			t.Fatalf("n=%d ℓ=%d ϕ=%.2f: MC %.5f vs analytic %.5f", row.N, row.L, row.Phi, row.PAdapterMC, row.PAdapterAna)
		}
		// Larger ℓ at same ϕ must reduce the eclipse probability.
	}
	// ϕ=0.5, ℓ=5 → ϕ^ℓ ≈ 3.1%; ℓ=8 → ≈0.4%.
	var l5, l8 float64
	for _, row := range res.Rows {
		if row.Phi == 0.5 && row.N == 13 {
			if row.L == 5 {
				l5 = row.PAdapterMC
			}
			if row.L == 8 {
				l8 = row.PAdapterMC
			}
		}
	}
	if l8 >= l5 {
		t.Fatalf("more connections did not reduce eclipse probability: ℓ5=%.4f ℓ8=%.4f", l5, l8)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestDowntimeBound(t *testing.T) {
	res := RunDowntime(200_000, 19, 13)
	for _, row := range res.Rows {
		// The measured success probability must respect the 3^(−c*) bound
		// (f/n = 4/13 < 1/3), with slack for MC noise.
		if row.SuccessMC > row.BoundAna*1.1+1e-4 {
			t.Fatalf("c*=%d: success %.6f exceeds bound %.6f", row.CStar, row.SuccessMC, row.BoundAna)
		}
	}
	// Success must decay geometrically.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].SuccessMC > res.Rows[i-1].SuccessMC && res.Rows[i-1].SuccessMC > 0 {
			t.Fatal("success probability not decaying")
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

// TestDowntimeSystemLevel wires the REAL subnet + canister: Byzantine block
// makers feed a private fork after downtime, honest makers reveal the true
// chain via N, and the corrupting transaction must never reach c*
// confirmations once a correct maker has proposed.
func TestDowntimeSystemLevel(t *testing.T) {
	sched := simnet.NewScheduler(21)
	subCfg := ic.DefaultConfig()
	subCfg.N = 4
	subCfg.DisableThresholdKeys = true
	subCfg.DegradedRoundProb = 0
	subCfg.Seed = 21
	subnet, err := ic.NewSubnet(sched, subCfg)
	if err != nil {
		t.Fatal(err)
	}

	// Honest history: 8 blocks; canister ingests all.
	canCfg := canister.DefaultConfig(btc.Regtest)
	can := canister.New(canCfg)
	builder := NewBlockBuilder(btc.RegtestParams(), 21)
	var honest []*btc.Block
	for i := 0; i < 8; i++ {
		blk, err := builder.NextBlock(nil)
		if err != nil {
			t.Fatal(err)
		}
		honest = append(honest, blk)
	}
	feedCtx := &ic.CallContext{Meter: ic.NewMeter(), Time: sched.Now(), Kind: ic.KindUpdate}
	for _, blk := range honest[:5] { // canister saw only the first 5 (downtime)
		if err := can.ProcessPayload(feedCtx, adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: blk, Header: blk.Header}}}); err != nil {
			t.Fatal(err)
		}
	}
	subnet.InstallCanister("bitcoin", can)

	// Attacker fork from height 5 with a corrupting transaction.
	forkBuilder := &BlockBuilder{forge: builder.forge, tip: honest[4].BlockHash(), rng: builder.rng}
	loot := btc.PayToPubKeyHashScript([20]byte{0x66})
	var fork []*btc.Block
	for i := 0; i < 3; i++ {
		specs := []TxSpec{}
		if i == 0 {
			specs = append(specs, TxSpec{Outputs: PayN(loot, 1, 777)})
		}
		blk, err := forkBuilder.NextBlock(specs)
		if err != nil {
			t.Fatal(err)
		}
		fork = append(fork, blk)
	}

	// Byzantine replica 0 feeds fork blocks one per round with N = {};
	// honest replicas reveal the real chain's remaining blocks.
	forkIdx, honestIdx := 0, 5
	subnet.Replicas()[0].Byzantine = true
	subnet.Replicas()[0].MaliciousPayload = func(ic.CanisterID) any {
		if forkIdx >= len(fork) {
			return nil
		}
		blk := fork[forkIdx]
		forkIdx++
		return adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: blk, Header: blk.Header}}}
	}
	for _, r := range subnet.Replicas()[1:] {
		r.SetPayloadBuilder("bitcoin", ic.PayloadBuilderFunc(func() any {
			if honestIdx >= len(honest) {
				return nil
			}
			blk := honest[honestIdx]
			honestIdx++
			return adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: blk, Header: blk.Header}}}
		}))
	}
	subnet.Start()
	sched.RunFor(60 * time.Second)

	// The honest chain (height 8) outgrows the fork (height 8 too, but the
	// honest branch ties and deterministic d_w selection is checked by the
	// canister); the corrupting transaction must never be visible with 2+
	// confirmations on the current chain once honest blocks landed.
	lootAddr, _ := btc.ExtractAddress(loot, btc.Regtest)
	ctx := &ic.CallContext{Meter: ic.NewMeter(), Time: sched.Now(), Kind: ic.KindQuery}
	res, err := can.GetUTXOs(ctx, canister.GetUTXOsArgs{Address: lootAddr.String(), MinConfirmations: 3})
	if err != nil {
		// Not synced is an acceptable safe outcome.
		return
	}
	if len(res.UTXOs) != 0 {
		t.Fatal("corrupting transaction visible with 3 confirmations")
	}
}

func TestDeltaSweepMonotone(t *testing.T) {
	res, err := RunDeltaSweep(23)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].GetUTXOsInstructions <= res.Rows[i-1].GetUTXOsInstructions {
			t.Fatalf("δ=%d cost %d not above δ=%d cost %d",
				res.Rows[i].Delta, res.Rows[i].GetUTXOsInstructions,
				res.Rows[i-1].Delta, res.Rows[i-1].GetUTXOsInstructions)
		}
		if res.Rows[i].UnstableBlocks <= res.Rows[i-1].UnstableBlocks {
			t.Fatal("unstable suffix did not grow with δ")
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestSyncModesAblation(t *testing.T) {
	res, err := RunSyncModes(29)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	single, multi := res.Rows[0], res.Rows[1]
	if single.MaxBlocksPerResponse != 1 {
		t.Fatalf("single-block mode returned %d blocks", single.MaxBlocksPerResponse)
	}
	if multi.MaxBlocksPerResponse <= 1 {
		t.Fatal("multi-block mode never returned multiple blocks")
	}
	if multi.RequestRounds >= single.RequestRounds {
		t.Fatalf("multi-block (%d rounds) not faster than single (%d rounds)",
			multi.RequestRounds, single.RequestRounds)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestTauSweepMatrix(t *testing.T) {
	res, err := RunTauSweep(31)
	if err != nil {
		t.Fatal(err)
	}
	get := func(tau, lag int64) float64 {
		for _, row := range res.Rows {
			if row.Tau == tau && row.Lag == lag {
				return row.AnsweredFraction
			}
		}
		t.Fatalf("missing row τ=%d lag=%d", tau, lag)
		return 0
	}
	// τ=0 refuses any lag; τ=2 (production) tolerates lag ≤ 2; larger τ
	// tolerates more.
	if get(0, 0) != 1 || get(0, 1) != 0 {
		t.Fatal("τ=0 behavior wrong")
	}
	if get(2, 2) != 1 || get(2, 3) != 0 {
		t.Fatal("τ=2 behavior wrong")
	}
	if get(8, 6) != 1 {
		t.Fatal("τ=8 behavior wrong")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestScalingLinear(t *testing.T) {
	res, err := RunScaling(61)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	base := res.Rows[0]
	if base.CompletedCalls == 0 {
		t.Fatal("no calls completed")
	}
	for _, row := range res.Rows[1:] {
		ratio := float64(row.CompletedCalls) / float64(base.CompletedCalls)
		want := float64(row.Subnets)
		if ratio < want*0.8 || ratio > want*1.2 {
			t.Fatalf("%d subnets: throughput ratio %.2f, want ~%.0f (linear)", row.Subnets, ratio, want)
		}
		// Latency must not degrade materially with more subnets.
		if row.AvgLatency > base.AvgLatency*3/2 {
			t.Fatalf("%d subnets: latency %v degraded vs %v", row.Subnets, row.AvgLatency, base.AvgLatency)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}
