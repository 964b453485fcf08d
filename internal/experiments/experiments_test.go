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
	res, err := RunFig7(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
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
	// The fixed population puts addresses of both kinds in the range.
	if len(stableSamples) == 0 || len(unstableSamples) == 0 {
		t.Fatalf("no comparison: %d stable and %d unstable addresses hold 100-1100 UTXOs", len(stableSamples), len(unstableSamples))
	}
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

// TestDowntimeSystemLevel wires the REAL subnet + canister: Byzantine block
// makers feed a private fork after downtime, honest makers reveal the true
// chain via N, and the corrupting transaction must never reach c*
// confirmations once a correct maker has proposed (Lemma IV.3).
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

	// Both branches reach height 8 with equal work, so the d_w tie-break
	// picks the tip; the seed fixes which branch that is, and it is the
	// honest one. The corrupting output must be absent at every
	// confirmation count the canister accepts.
	ctx := &ic.CallContext{Meter: ic.NewMeter(), Time: sched.Now(), Kind: ic.KindQuery}
	tip, err := can.Query(ctx, "get_tip", nil)
	if err != nil {
		t.Fatalf("get_tip: %v", err)
	}
	if want := honest[7].BlockHash(); tip != want {
		t.Fatalf("tip %v, want the honest block %v", tip, want)
	}
	lootAddr, _ := btc.ExtractAddress(loot, btc.Regtest)
	for c := int64(0); c <= canCfg.StabilityThreshold; c++ {
		res, err := can.GetUTXOs(ctx, canister.GetUTXOsArgs{Address: lootAddr.String(), MinConfirmations: c})
		if err != nil {
			t.Fatalf("get_utxos at %d confirmations: %v", c, err)
		}
		if len(res.UTXOs) != 0 {
			t.Fatalf("corrupting transaction visible at %d confirmations", c)
		}
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
