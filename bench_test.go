// Package icbtc's top-level benchmarks regenerate the paper's evaluation
// (one testing.B benchmark per figure/measurement) and additionally bench
// the hot paths of every substrate. Run with:
//
//	go test -bench=. -benchmem
//
// The Benchmark*Figure* entries report custom metrics (instructions,
// simulated latency) next to wall-clock numbers; EXPERIMENTS.md records a
// full paper-vs-measured comparison.
package icbtc_test

import (
	"crypto/sha256"
	"math/rand"
	"sort"
	"testing"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/experiments"
	"icbtc/internal/ic"
	"icbtc/internal/ingest"
	"icbtc/internal/obs"
	"icbtc/internal/queryfleet"
	"icbtc/internal/secp256k1"
	"icbtc/internal/simnet"
	"icbtc/internal/tecdsa"
	"icbtc/internal/utxo"
)

// --- Figure benches ---

// BenchmarkFig5UTXOGrowth regenerates Figure 5 (UTXO + storage growth).
func BenchmarkFig5UTXOGrowth(b *testing.B) {
	cfg := experiments.DefaultFig5Config()
	cfg.Weeks = 26 // one quarter per iteration keeps -bench runs short
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(float64(last.UTXOCount), "utxos")
		b.ReportMetric(float64(last.StorageBytes)/(1<<20), "MiB")
	}
}

// BenchmarkFig6BlockIngestion regenerates Figure 6 (ingestion cost).
func BenchmarkFig6BlockIngestion(b *testing.B) {
	cfg := experiments.DefaultFig6Config()
	cfg.Days = 30
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.AvgInstructions)/1e9, "Binstr/block")
		ins, rem := res.SplitFractions()
		b.ReportMetric(ins*100, "insert%")
		b.ReportMetric(rem*100, "remove%")
	}
}

// BenchmarkFig7GetUTXOs regenerates Figure 7 (latency + instructions vs
// UTXO count).
func BenchmarkFig7GetUTXOs(b *testing.B) {
	cfg := experiments.DefaultFig7Config()
	cfg.Scale = 25
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Report the largest bucket's numbers as the headline metrics.
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.UTXOsQuery.Seconds(), "query-s")
		b.ReportMetric(last.UTXOsReplicated.Seconds(), "replicated-s")
		b.ReportMetric(float64(last.UTXOsInstructions)/1e6, "Minstr")
	}
}

// BenchmarkLatencyDistribution regenerates the §IV-B latency numbers.
func BenchmarkLatencyDistribution(b *testing.B) {
	cfg := experiments.DefaultLatencyConfig()
	cfg.Scale = 50
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLatency(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ReplicatedMin.Seconds(), "repl-min-s")
		b.ReportMetric(res.ReplicatedAvg.Seconds(), "repl-avg-s")
		b.ReportMetric(res.ReplicatedP90.Seconds(), "repl-p90-s")
		b.ReportMetric(float64(res.QueryBalanceMedian.Milliseconds()), "qbal-med-ms")
	}
}

// BenchmarkCostPerRequest regenerates the requests-per-dollar arithmetic.
func BenchmarkCostPerRequest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCost(7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BalancePerUSD, "balance/USD")
		b.ReportMetric(res.UTXOsPerUSD, "utxos/USD")
	}
}

// BenchmarkEclipseMonteCarlo regenerates the Lemma IV.1 table.
func BenchmarkEclipseMonteCarlo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunEclipse(20_000, 11)
		b.ReportMetric(res.Rows[len(res.Rows)-1].PAdapterMC, "p-eclipse")
	}
}

// BenchmarkDowntimeMonteCarlo regenerates the Lemma IV.3 sweep.
func BenchmarkDowntimeMonteCarlo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunDowntime(50_000, 13, 13)
		b.ReportMetric(res.Rows[1].SuccessMC, "p-success-c2")
	}
}

// BenchmarkDegradeRecovery runs the lossy-link recovery experiment at a
// single mid-ladder loss rate (the full sweep is `bench -fig degrade`):
// the chaos harness under 25% adapter-link loss, reporting rounds to
// reconverge after heal. Gated by cmd/benchgate against BENCH_BASELINE.json
// — a regression here means the retry/backoff/stall machinery got slower at
// digging the sync out of a degraded uplink.
func BenchmarkDegradeRecovery(b *testing.B) {
	cfg := experiments.DegradeConfig{Seed: 7, Runs: 1, LossRates: []float64{0.25}, Rounds: 32}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDegrade(cfg)
		if err != nil {
			b.Fatal(err)
		}
		row := res.Rows[0]
		if !row.OracleIdentical {
			b.Fatalf("degraded run diverged from the oracle: %+v", row)
		}
		b.ReportMetric(row.RecoveryAvg, "recovery-rounds")
	}
}

// BenchmarkScalingThroughput regenerates the throughput-scaling extension.
func BenchmarkScalingThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunScaling(7)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(float64(last.CompletedCalls), "calls-4subnets")
	}
}

// BenchmarkAblationDeltaSweep regenerates the δ trade-off table.
func BenchmarkAblationDeltaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDeltaSweep(7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[len(res.Rows)-1].GetUTXOsInstructions)/1e6, "Minstr-d144")
	}
}

// BenchmarkAblationSyncModes regenerates the single/multi block ablation.
func BenchmarkAblationSyncModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSyncModes(7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[0].RequestRounds), "rounds-single")
		b.ReportMetric(float64(res.Rows[1].RequestRounds), "rounds-multi")
	}
}

// BenchmarkReadPathDeepUnstable runs the read-path scenario (δ=144, skewed
// addresses): the overlay must beat the naive-replay oracle by ≥5× and stay
// flat in unstable depth while the oracle grows linearly.
func BenchmarkReadPathDeepUnstable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunReadPath(experiments.DefaultReadPathConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BalanceSpeedupAtFullDepth(), "bal-speedup-x")
		b.ReportMetric(res.UTXOsWallSpeedupAtFullDepth(), "utxo-wall-x")
		b.ReportMetric(float64(res.Rows[0].BalanceOverlay)/1e6, "bal-ovl-Minstr")
		b.ReportMetric(float64(res.Rows[0].BalanceOracle)/1e6, "bal-oracle-Minstr")
	}
}

// BenchmarkSnapshotFastSync runs the snapshot scenario at reduced scale:
// encode/decode wall time, snapshot size, and the fast-sync-vs-replay
// speedup (the full ≥100k-UTXO run is `bench -fig snapshot`).
func BenchmarkSnapshotFastSync(b *testing.B) {
	cfg := experiments.SnapshotConfig{
		Seed: 7, Blocks: 40, TxsPerBlock: 150, OutputsPerTx: 3,
		SpendEvery: 6, Addresses: 32, Delta: 6,
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSnapshot(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FastSyncSpeedup, "fastsync-x")
		b.ReportMetric(res.BytesPerUTXO, "B/utxo")
		b.ReportMetric(float64(res.DecodeTime.Microseconds()), "decode-us")
		b.ReportMetric(float64(res.EncodeTime.Microseconds()), "encode-us")
	}
}

// BenchmarkSnapshotCodec microbenches the codec itself — one encode and one
// decode of a canister holding a deep stable set — isolated from history
// building and replay.
func BenchmarkSnapshotCodec(b *testing.B) {
	f := experiments.NewFeeder(btc.Regtest, 6, 9)
	script := btc.PayToAddrScript(btc.NewP2PKHAddress([20]byte{0x51}, btc.Regtest))
	for i := 0; i < 10; i++ {
		if _, err := f.FeedBlock([]experiments.TxSpec{{Outputs: experiments.PayN(script, 1000, 546)}}); err != nil {
			b.Fatal(err)
		}
	}
	if err := f.FeedEmpty(8); err != nil {
		b.Fatal(err)
	}
	snap, err := f.Canister.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	utxos := float64(f.Canister.StableUTXOCount())
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.Canister.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(snap))/utxos, "B/utxo")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := canister.RestoreSnapshot(snap); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ingestBenchWire builds a mainnet-shaped wire batch once per process.
var ingestBenchWire = func() [][]byte {
	rng := rand.New(rand.NewSource(7))
	scripts := make([][]byte, 32)
	for i := range scripts {
		var h [20]byte
		rng.Read(h[:])
		scripts[i] = btc.PayToAddrScript(btc.NewP2PKHAddress(h, btc.Regtest))
	}
	builder := experiments.NewBlockBuilder(btc.RegtestParams(), 7)
	wire := make([][]byte, 0, 30)
	for i := 0; i < 30; i++ {
		specs := make([]experiments.TxSpec, 0, 200)
		for t := 0; t < 200; t++ {
			spec := experiments.TxSpec{Outputs: experiments.PayN(scripts[rng.Intn(len(scripts))], 2, 546+int64(t%9))}
			if t%6 == 5 {
				spec.Inputs = 1
			}
			specs = append(specs, spec)
		}
		block, err := builder.NextBlock(specs)
		if err != nil {
			panic(err)
		}
		wire = append(wire, block.Bytes())
	}
	return wire
}()

// BenchmarkIngestSerial is the serial oracle leg: per-block ParseBlock +
// ProcessPayload over a 30-block mainnet-shaped batch (~6k transactions).
func BenchmarkIngestSerial(b *testing.B) {
	cfg := canister.DefaultConfig(btc.Regtest)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := canister.New(cfg)
		now := time.Unix(1_700_000_000, 0).UTC()
		for _, w := range ingestBenchWire {
			blk, err := btc.ParseBlock(w)
			if err != nil {
				b.Fatal(err)
			}
			now = now.Add(time.Second)
			if err := c.ProcessPayload(ic.NewCallContext(ic.KindUpdate, now), adapterResponse(blk)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(ingestBenchWire))*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
}

// BenchmarkIngestPipeline ingests the identical batch through SyncWire at
// GOMAXPROCS-bounded workers — the parallel deterministic pipeline. Gated
// by cmd/benchgate against BENCH_BASELINE.json.
func BenchmarkIngestPipeline(b *testing.B) {
	cfg := canister.DefaultConfig(btc.Regtest)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := canister.New(cfg)
		now := time.Unix(1_700_000_000, 0).UTC()
		stats, err := c.SyncWire(ic.NewCallContext(ic.KindUpdate, now), ingestBenchWire, ingest.Config{Workers: ingest.DefaultWorkers()})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Accepted != len(ingestBenchWire) {
			b.Fatalf("accepted %d of %d", stats.Accepted, len(ingestBenchWire))
		}
	}
	b.ReportMetric(float64(len(ingestBenchWire))*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
}

// BenchmarkGetBalanceOverlayVsReplay microbenches one get_balance against a
// mainnet-deep unstable chain: the canister's overlay read path, and the
// replay oracle over the same canister.
func BenchmarkGetBalanceOverlayVsReplay(b *testing.B) {
	cfg := canister.DefaultConfig(btc.Regtest)
	cfg.StabilityThreshold = 144
	can := canister.New(cfg)
	builder := experiments.NewBlockBuilder(btc.RegtestParams(), 11)
	var h [20]byte
	h[0] = 0x77
	addr := btc.NewP2PKHAddress(h, btc.Regtest)
	script := btc.PayToAddrScript(addr)
	now := time.Unix(1_700_000_000, 0).UTC()
	for i := 0; i < 150; i++ {
		blk, err := builder.NextBlock([]experiments.TxSpec{{Outputs: experiments.PayN(script, 2, 546)}})
		if err != nil {
			b.Fatal(err)
		}
		now = now.Add(time.Minute)
		ctx := &ic.CallContext{Meter: ic.NewMeter(), Time: now, Kind: ic.KindUpdate}
		if err := can.ProcessPayload(ctx, adapterResponse(blk)); err != nil {
			b.Fatal(err)
		}
	}
	args := canister.GetBalanceArgs{Address: addr.String()}
	for _, rp := range []struct {
		name    string
		balance func(*ic.CallContext) (int64, error)
	}{
		{"overlay", func(ctx *ic.CallContext) (int64, error) { return can.GetBalance(ctx, args) }},
		{"replay", func(ctx *ic.CallContext) (int64, error) { return canister.ReplayBalance(can, ctx, args) }},
	} {
		b.Run(rp.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// An update context bypasses the balance cache, so each
				// iteration measures the full view merge (or replay).
				ctx := &ic.CallContext{Meter: ic.NewMeter(), Time: now, Kind: ic.KindUpdate}
				if _, err := rp.balance(ctx); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(ctx.Meter.Total())/1e6, "Minstr")
				}
			}
		})
	}
}

func adapterResponse(blk *btc.Block) adapter.Response {
	return adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: blk, Header: blk.Header}}}
}

// --- Substrate hot-path benches ---

func BenchmarkDoubleSHA256(b *testing.B) {
	data := make([]byte, 256)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		_ = btc.DoubleSHA256(data)
	}
}

func BenchmarkTransactionSerialize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tx := benchTx(rng, 2, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tx.Bytes()
	}
}

func BenchmarkTransactionParse(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	raw := benchTx(rng, 2, 2).Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := btc.ParseTransaction(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerkleRoot1000(b *testing.B) {
	hashes := make([]btc.Hash, 1000)
	rng := rand.New(rand.NewSource(3))
	for i := range hashes {
		rng.Read(hashes[i][:])
	}
	for i := 0; i < b.N; i++ {
		_ = btc.MerkleRootFromHashes(hashes)
	}
}

func BenchmarkECDSASign(b *testing.B) {
	key, _ := secp256k1.GeneratePrivateKey(rand.New(rand.NewSource(4)))
	digest := sha256.Sum256([]byte("bench"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := key.Sign(digest[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECDSAVerify(b *testing.B) {
	key, _ := secp256k1.GeneratePrivateKey(rand.New(rand.NewSource(5)))
	digest := sha256.Sum256([]byte("bench"))
	sig, _ := key.Sign(digest[:])
	pub := key.PubKey()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sig.Verify(digest[:], pub) {
			b.Fatal("invalid")
		}
	}
}

func BenchmarkThresholdECDSASign13of5(b *testing.B) {
	// n=13, t=4: the paper's subnet parameters.
	committee, err := tecdsa.NewCommittee(13, 4, rand.New(rand.NewSource(6)))
	if err != nil {
		b.Fatal(err)
	}
	digest := sha256.Sum256([]byte("bench"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := committee.Sign(digest[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUTXOSetApplyBlock(b *testing.B) {
	script := btc.PayToPubKeyHashScript([20]byte{9})
	blocks := make([]*btc.Block, 0, b.N)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < b.N; i++ {
		blk := &btc.Block{Transactions: []*btc.Transaction{{
			Inputs: []btc.TxIn{{
				PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff},
				SignatureScript:  []byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24), byte(rng.Intn(256))},
			}},
			Outputs: experimentsPayN(script, 100),
		}}}
		blocks = append(blocks, blk)
	}
	set := utxo.New(btc.Regtest)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := set.ApplyBlock(blocks[i], int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(set.Len()), "utxos-final")
}

// deepFold is the stable fold's workload at depth: blocks of 500
// transactions x 2 outputs paying the paper's Fig 7 address population (1000
// addresses, 211 of them holding most of the UTXOs), two of every three
// transactions spending one output of an earlier block, the third a missing
// one. newDeepFold folds
// preload of them into a fresh set — 160 leave it above 100k live UTXOs.
type deepFold struct {
	set     *utxo.Set
	height  int64
	pop     *experiments.AddressPopulation
	cum     []int
	rng     *rand.Rand
	builder *experiments.BlockBuilder
}

func newDeepFold(tb testing.TB, preload int) *deepFold {
	d := &deepFold{
		set:     utxo.New(btc.Regtest),
		pop:     experiments.NewAddressPopulation(btc.Regtest, 8, 1),
		rng:     rand.New(rand.NewSource(8)),
		builder: experiments.NewBlockBuilder(btc.RegtestParams(), 8),
	}
	total := 0
	for _, a := range d.pop.Addresses {
		total += a.Count
		d.cum = append(d.cum, total)
	}
	for i := 0; i < preload; i++ {
		d.fold(tb, d.next(tb))
	}
	return d
}

// next builds the next block, transaction IDs memoized.
func (d *deepFold) next(tb testing.TB) *btc.Block {
	specs := make([]experiments.TxSpec, 500)
	for t := range specs {
		outs := make([]btc.TxOut, 2)
		for o := range outs {
			a := sort.SearchInts(d.cum, d.rng.Intn(d.cum[len(d.cum)-1])+1)
			outs[o] = btc.TxOut{Value: 600 + d.rng.Int63n(3000), PkScript: d.pop.Addresses[a].Script}
		}
		specs[t] = experiments.TxSpec{Outputs: outs}
		if t%3 != 0 {
			specs[t].Inputs = 1
		}
	}
	block, err := d.builder.NextBlock(specs)
	if err != nil {
		tb.Fatal(err)
	}
	block.TxIDs()
	return block
}

// fold applies a block the way the canister does. The builder gives every
// transaction without an input a fabricated one (value entering the tracked
// addresses), so a third of a block's transactions — all of the first
// block's — take the fold's missing-input path, and nothing else may.
func (d *deepFold) fold(tb testing.TB, block *btc.Block) {
	d.height++
	want := (len(block.Transactions) + 1) / 3
	if d.height == 1 {
		want = len(block.Transactions) - 1
	}
	if st := d.set.ApplyBlockIngest(block, d.height); st.Errors != want {
		tb.Fatalf("height %d: %d tolerated errors, want %d missing inputs", d.height, st.Errors, want)
	}
}

// BenchmarkUTXOSetFoldDeep times the function the canister folds stable
// blocks with — the tolerant ApplyBlockIngest — where it is expensive: into
// a set of 100k+ UTXOs whose outpoint map no longer fits a cache, with
// removals out of deep, skewed buckets. Gated by cmd/benchgate.
func BenchmarkUTXOSetFoldDeep(b *testing.B) {
	d := newDeepFold(b, 160)
	blocks := make([]*btc.Block, b.N)
	for i := range blocks {
		blocks[i] = d.next(b)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for _, block := range blocks {
		d.fold(b, block)
	}
	b.ReportMetric(float64(d.set.Len()), "utxos-final")
}

func experimentsPayN(script []byte, n int) []btc.TxOut {
	outs := make([]btc.TxOut, n)
	for i := range outs {
		outs[i] = btc.TxOut{Value: 546, PkScript: script}
	}
	return outs
}

func BenchmarkGetUTXOs1000(b *testing.B) {
	// A single get_utxos against an address with 1000 stable UTXOs — the
	// paper's most expensive request class.
	f := experiments.NewFeeder(btc.Regtest, 6, 9)
	var h [20]byte
	h[0] = 0x42
	addr := btc.NewP2PKHAddress(h, btc.Regtest)
	script := btc.PayToAddrScript(addr)
	if _, err := f.FeedBlock([]experiments.TxSpec{{Outputs: experiments.PayN(script, 1000, 546)}}); err != nil {
		b.Fatal(err)
	}
	if err := f.FeedEmpty(8); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := f.QueryCtx()
		res, err := f.Canister.GetUTXOs(ctx, canister.GetUTXOsArgs{Address: addr.String()})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.UTXOs) != 1000 {
			b.Fatalf("got %d UTXOs", len(res.UTXOs))
		}
		if i == 0 {
			b.ReportMetric(float64(ctx.Meter.Total())/1e6, "Minstr")
		}
	}
}

// BenchmarkQueryFleetQuery is the fleet serving path itself — routing, the
// replica's read-locked execution, and the staleness check — on a hydrated
// single-replica fleet with the execution-time model off, so the number is
// pure serving overhead over the underlying canister query. Each op is a
// batch of 100 routed queries (~65µs), so the CI gate's -benchtime=300x
// measures a multi-millisecond window comparable to the other gated
// benchmarks instead of a scheduler-noise-sized one. Gated by
// cmd/benchgate against BENCH_BASELINE.json.
func BenchmarkQueryFleetQuery(b *testing.B) {
	f := experiments.NewFeeder(btc.Regtest, 6, 10)
	var h [20]byte
	h[0] = 0x47
	addr := btc.NewP2PKHAddress(h, btc.Regtest)
	script := btc.PayToAddrScript(addr)
	for i := 0; i < 10; i++ {
		if _, err := f.FeedBlock([]experiments.TxSpec{{Outputs: experiments.PayN(script, 20, 546)}}); err != nil {
			b.Fatal(err)
		}
	}
	fleet, err := queryfleet.New(f.Canister, queryfleet.Config{Replicas: 1, MaxLagBlocks: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer fleet.Close()
	args := canister.GetBalanceArgs{Address: addr.String()}
	now := time.Unix(1_700_100_000, 0).UTC()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for q := 0; q < 100; q++ {
			rq := fleet.RouteQuery("get_balance", args, "bench", now)
			if rq.Err != nil {
				b.Fatal(rq.Err)
			}
		}
	}
}

// BenchmarkFleetLoad runs a scaled-down open-loop Zipf load comparison per
// op — baseline fleet vs the full serving stack (coalesce, hot cache,
// admission) at equal replicas — reporting the aggregate QPS speedup,
// cache-hit rate, and layered p99. The wall time per op is dominated by the
// modeled execution sleeps (deterministic across machines), so the ns/op is
// gated by cmd/benchgate against BENCH_BASELINE.json: a regression means
// the serving layers stopped absorbing the overload. The full-size run is
// `bench -fig fleetload`.
func BenchmarkFleetLoad(b *testing.B) {
	cfg := experiments.FleetLoadConfig{
		Seed:         7,
		Replicas:     2,
		Requests:     240,
		OfferedQPS:   400,
		Addresses:    32,
		ZipfS:        1.5,
		Blocks:       10,
		ExecRate:     2e8,
		PageLimit:    8,
		SlowEvery:    40,
		SlowLimit:    40,
		BurstEvery:   60,
		BurstLen:     10,
		TipMoveEvery: 250 * time.Millisecond,
		CacheEntries: 256,
		Budgets: map[canister.CostClass]queryfleet.Budget{
			canister.CostScan: {Rate: 40, Burst: 10},
		},
		SLO: 300 * time.Millisecond,
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFleetLoad(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Layered.CacheHits == 0 {
			b.Fatal("layered pass never hit the hot cache")
		}
		b.ReportMetric(res.Speedup, "speedup-x")
		b.ReportMetric(100*float64(res.Layered.CacheHits)/float64(res.Layered.Requests), "cache-hit-%")
		b.ReportMetric(float64(res.Layered.P99.Milliseconds()), "p99-ms")
	}
}

// BenchmarkQueryFleetScaling runs the full 1→8 replica sweep (the
// `bench -fig queryfleet` table) once per iteration, reporting the
// 8-replica speedup as a custom metric.
func BenchmarkQueryFleetScaling(b *testing.B) {
	cfg := experiments.DefaultQueryFleetConfig()
	cfg.Window = 300 * time.Millisecond
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunQueryFleet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.Speedup, "speedup@8")
		b.ReportMetric(last.QPS, "qps@8")
	}
}

func BenchmarkGetUTXOsDeepPagination(b *testing.B) {
	// Walk an entire 1000-UTXO address in pages of 50: every resume seeks
	// the cursor by binary search in the ordered index, so a full walk is
	// O(pages · (log n + page)) — the pre-index implementation re-sorted
	// the bucket per page and linear-scanned the cursor, making deep walks
	// quadratic.
	f := experiments.NewFeeder(btc.Regtest, 6, 9)
	var h [20]byte
	h[0] = 0x43
	addr := btc.NewP2PKHAddress(h, btc.Regtest)
	script := btc.PayToAddrScript(addr)
	if _, err := f.FeedBlock([]experiments.TxSpec{{Outputs: experiments.PayN(script, 1000, 546)}}); err != nil {
		b.Fatal(err)
	}
	if err := f.FeedEmpty(8); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var token []byte
		pages, total := 0, 0
		for {
			res, err := f.Canister.GetUTXOs(f.QueryCtx(), canister.GetUTXOsArgs{
				Address: addr.String(), Page: token, Limit: 50,
			})
			if err != nil {
				b.Fatal(err)
			}
			pages++
			total += len(res.UTXOs)
			if res.NextPage == nil {
				break
			}
			token = res.NextPage
		}
		if pages != 20 || total != 1000 {
			b.Fatalf("walked %d pages / %d UTXOs", pages, total)
		}
	}
}

func BenchmarkConsensusRound(b *testing.B) {
	sched := simnet.NewScheduler(10)
	cfg := ic.DefaultConfig()
	cfg.DisableThresholdKeys = true
	subnet, err := ic.NewSubnet(sched, cfg)
	if err != nil {
		b.Fatal(err)
	}
	subnet.Start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.RunFor(time.Second) // one consensus round of virtual time
	}
	b.ReportMetric(float64(subnet.Round())/float64(b.N), "rounds/iter")
}

// BenchmarkObsCounterAdd pins the cost of the hot-path metric primitive:
// every instrumented request pays at least one of these, so the gate keeps
// it in the tens-of-nanoseconds regime.
func BenchmarkObsCounterAdd(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter("bench_counter_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkObsHistogramObserve pins the per-observation cost of the
// fixed-bucket histogram used on every ingest stage and serving layer.
func BenchmarkObsHistogramObserve(b *testing.B) {
	reg := obs.NewRegistry()
	h := reg.Histogram("bench_latency_ns", obs.DurationBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i%1_000_000) * 1000)
	}
}

func benchTx(rng *rand.Rand, nIn, nOut int) *btc.Transaction {
	tx := &btc.Transaction{Version: 2}
	for i := 0; i < nIn; i++ {
		var op btc.OutPoint
		rng.Read(op.TxID[:])
		tx.Inputs = append(tx.Inputs, btc.TxIn{PreviousOutPoint: op, SignatureScript: make([]byte, 107)})
	}
	var h [20]byte
	for i := 0; i < nOut; i++ {
		rng.Read(h[:])
		tx.Outputs = append(tx.Outputs, btc.TxOut{Value: 546, PkScript: btc.PayToPubKeyHashScript(h)})
	}
	return tx
}
