package experiments

import (
	"fmt"
	"io"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/btcnode"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
	"icbtc/internal/secp256k1"
	"icbtc/internal/simnet"

	"math/rand"
)

// Ablation benches for the design choices the paper trades off.

// --- δ sweep: request cost vs stability threshold (§III-C trade-off) ---

// DeltaRow is one δ sample.
type DeltaRow struct {
	Delta int64
	// GetUTXOsInstructions is the mean metered cost of get_utxos when the
	// unstable suffix has δ blocks to scan.
	GetUTXOsInstructions uint64
	// UnstableBlocks actually held above the anchor.
	UnstableBlocks int
}

// DeltaSweepResult quantifies "there is a trade-off between the
// computational complexity and security as a larger δ makes it less likely
// that blocks ... are affected by a block reorganization" (§III-C).
type DeltaSweepResult struct {
	Rows []DeltaRow
}

// RunDeltaSweep measures get_utxos cost across δ values with the same
// workload: the per-request cost grows with δ because every request scans
// the unstable suffix.
func RunDeltaSweep(seed int64) (*DeltaSweepResult, error) {
	res := &DeltaSweepResult{}
	for _, delta := range []int64{6, 12, 36, 72, 144} {
		f := NewFeeder(btc.Regtest, delta, seed)
		var addrHash [20]byte
		addrHash[0] = byte(delta)
		addr := btc.NewP2PKHAddress(addrHash, btc.Regtest)
		script := btc.PayToAddrScript(addr)
		// Funds arrive early (stable once past δ), then the chain grows a
		// full unstable suffix of δ+2 blocks with light traffic to the
		// same address.
		if _, err := f.FeedBlock([]TxSpec{{Outputs: PayN(script, 50, 546)}}); err != nil {
			return nil, err
		}
		for i := int64(0); i < delta+2; i++ {
			if _, err := f.FeedBlock([]TxSpec{{Outputs: PayN(script, 1, 546)}}); err != nil {
				return nil, err
			}
		}
		ctx := f.QueryCtx()
		if _, err := f.Canister.GetUTXOs(ctx, canister.GetUTXOsArgs{Address: addr.String()}); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, DeltaRow{
			Delta:                delta,
			GetUTXOsInstructions: ctx.Meter.Total(),
			UnstableBlocks:       f.Canister.UnstableBlockCount(),
		})
	}
	return res, nil
}

// Print renders the sweep.
func (r *DeltaSweepResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablation: δ sweep — get_utxos cost vs stability threshold (§III-C trade-off)")
	fmt.Fprintf(w, "%-8s %18s %16s\n", "δ", "instructions[M]", "unstable blocks")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8d %18.2f %16d\n", row.Delta, float64(row.GetUTXOsInstructions)/1e6, row.UnstableBlocks)
	}
}

// --- single-block vs multi-block responses (§III-B / §IV-A) ---

// SyncModeRow compares the two Algorithm 1 modes.
type SyncModeRow struct {
	Mode string
	// RequestRounds is how many canister request/response rounds were
	// needed to ingest the whole chain.
	RequestRounds int
	// MaxBlocksPerResponse observed.
	MaxBlocksPerResponse int
}

// SyncModeResult is the ablation for "Returning multiple blocks speeds up
// the syncing process but returning only one block is preferable for
// security reasons" (§III-B).
type SyncModeResult struct {
	ChainHeight int
	Rows        []SyncModeRow
}

// RunSyncModes syncs the same chain through an adapter once per mode.
func RunSyncModes(seed int64) (*SyncModeResult, error) {
	const height = 40
	res := &SyncModeResult{ChainHeight: height}
	for _, mode := range []struct {
		name       string
		multiBelow int64
	}{
		{"single-block (tip rule)", 0},
		{"multi-block (initial sync)", 1 << 30},
	} {
		sched := simnet.NewScheduler(seed)
		net := simnet.NewNetwork(sched)
		params := btc.RegtestParams()
		sim := btcnode.BuildHonestNetwork(net, params, 4)
		key, err := secp256k1.GeneratePrivateKey(rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		miner := btcnode.NewMinerWithKey(sim.Nodes[0], key)
		if _, err := miner.MineChain(height, 0); err != nil {
			return nil, err
		}
		if _, err := sim.SyncAll(5_000_000); err != nil {
			return nil, err
		}
		cfg := adapter.ConfigForNetwork(btc.Regtest)
		cfg.Connections = 3
		cfg.AddrLowWater, cfg.AddrHighWater = 1, 10
		cfg.MultiBlockSyncHeight = mode.multiBelow
		ad := adapter.New("adapter/0", net, params, sim.Directory, cfg)
		ad.Start()
		sched.RunFor(time.Minute)

		canCfg := canister.DefaultConfig(btc.Regtest)
		can := canister.New(canCfg)
		rounds := 0
		maxBlocks := 0
		for can.AvailableHeight() < height && rounds < 10*height {
			rounds++
			resp := ad.HandleRequest(can.CurrentRequest())
			if len(resp.Blocks) > maxBlocks {
				maxBlocks = len(resp.Blocks)
			}
			ctx := &ic.CallContext{Meter: ic.NewMeter(), Time: sched.Now(), Kind: ic.KindUpdate}
			if err := can.ProcessPayload(ctx, resp); err != nil {
				return nil, err
			}
			sched.RunFor(2 * time.Second) // block fetches in flight
		}
		res.Rows = append(res.Rows, SyncModeRow{
			Mode:                 mode.name,
			RequestRounds:        rounds,
			MaxBlocksPerResponse: maxBlocks,
		})
	}
	return res, nil
}

// Print renders the comparison.
func (r *SyncModeResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablation: Algorithm 1 response modes, syncing a %d-block chain\n", r.ChainHeight)
	fmt.Fprintf(w, "%-30s %16s %22s\n", "mode", "request rounds", "max blocks/response")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-30s %16d %22d\n", row.Mode, row.RequestRounds, row.MaxBlocksPerResponse)
	}
	fmt.Fprintln(w, "single-block mode bounds a malicious block maker to one fork block per IC round (Lemma IV.3)")
}
