package icbtc_test

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"
	"unsafe"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/experiments"
	"icbtc/internal/ic"
	"icbtc/internal/queryfleet"
	"icbtc/internal/statecodec"
	"icbtc/internal/utxo"
)

// TestGetUTXOsPageAllocations pins the allocation budget of a full
// get_utxos page served from the ordered stable index: one context, one
// page slice, one result — the indexed read path must stay sort-free and
// bucket-copy-free. The pre-index implementation spent 36 allocations per
// request on this workload; a regression past the pinned budget means the
// streaming path degraded. The bytes are pinned too: a page of coins, 56
// bytes an entry, where a page of UTXOs holding their scripts was 80.
func TestGetUTXOsPageAllocations(t *testing.T) {
	f := experiments.NewFeeder(btc.Regtest, 6, 9)
	var h [20]byte
	h[0] = 0x42
	addr := btc.NewP2PKHAddress(h, btc.Regtest)
	script := btc.PayToAddrScript(addr)
	if _, err := f.FeedBlock([]experiments.TxSpec{{Outputs: experiments.PayN(script, 1000, 546)}}); err != nil {
		t.Fatal(err)
	}
	if err := f.FeedEmpty(8); err != nil {
		t.Fatal(err)
	}
	args := canister.GetUTXOsArgs{Address: addr.String()}
	avg := testing.AllocsPerRun(200, func() {
		ctx := f.QueryCtx()
		res, err := f.Canister.GetUTXOs(ctx, args)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.UTXOs) != 1000 {
			t.Fatalf("got %d UTXOs", len(res.UTXOs))
		}
	})
	// Budget: context (with embedded meter), page slice, result struct,
	// plus one of slack for runtime noise.
	if avg > 4 {
		t.Fatalf("get_utxos page allocates %.1f times per request, budget is 4", avg)
	}

	// Bytes: the page is 1000 coins of 56 bytes (a 36-byte outpoint padded to
	// 40, value, height), allocated as a large object in whole 8 KiB runtime
	// pages, and 1 KiB covers the context and the result. The entry size is
	// written out, not read off utxo.Coin, so a field added to the coin moves
	// the page past the budget: a script slice makes it 81 920 bytes.
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := f.Canister.GetUTXOs(f.QueryCtx(), args); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	const coinBytes, runtimePage = 56, 8 << 10
	page := uint64(1000*coinBytes+runtimePage-1) / runtimePage * runtimePage
	t.Logf("%d bytes per 1000-coin page of %d-byte coins", bytes, unsafe.Sizeof(utxo.Coin{}))
	if budget := page + 1<<10; bytes > budget {
		t.Fatalf("get_utxos page allocates %d bytes per request, budget is %d", bytes, budget)
	}
}

// TestOverlayReadAllocations pins the read path of an address the unstable
// suffix does touch: one created to and spent from in each unstable block.
// The overlay is sized from the deltas' entry counts before it is built, so
// it is a column and an index whatever it holds — get_utxos adds them (and
// the next-page token) to its context, page and result, get_balance to its
// context — and the counts at ten overlay entries (one spend and one
// creation in each of five unstable blocks) and at five hundred are the same.
// The two maps this replaced grew with their entries.
func TestOverlayReadAllocations(t *testing.T) {
	measure := func(perBlock int) (utxos, balance float64, unstable int) {
		f := experiments.NewFeeder(btc.Regtest, 6, 13)
		addr := btc.NewP2PKHAddress([20]byte{0x44}, btc.Regtest)
		script := btc.PayToAddrScript(addr)
		// A stable stock to spend from, then the unstable blocks: each spends
		// perBlock outputs of the address (the builder draws them from all it
		// ever created, so now and then a coinbase) and pays it as many.
		if _, err := f.FeedBlock([]experiments.TxSpec{{Outputs: experiments.PayN(script, 1500, 546)}}); err != nil {
			t.Fatal(err)
		}
		if err := f.FeedEmpty(8); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			spec := experiments.TxSpec{Inputs: perBlock, Outputs: experiments.PayN(script, perBlock, 700)}
			if _, err := f.FeedBlock([]experiments.TxSpec{spec}); err != nil {
				t.Fatal(err)
			}
		}
		utxos = testing.AllocsPerRun(100, func() {
			res, err := f.Canister.GetUTXOs(f.QueryCtx(), canister.GetUTXOsArgs{Address: addr.String()})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.UTXOs) != 1000 || res.NextPage == nil {
				t.Fatalf("got %d UTXOs, next page %x", len(res.UTXOs), res.NextPage)
			}
			unstable = res.UnstableCount
		})
		balance = testing.AllocsPerRun(100, func() {
			ctx := f.QueryCtx()
			ctx.Kind = ic.KindUpdate // bypass the balance cache, measure the merge
			if _, err := f.Canister.GetBalance(ctx, canister.GetBalanceArgs{Address: addr.String()}); err != nil {
				t.Fatal(err)
			}
		})
		return utxos, balance, unstable
	}
	smallUTXOs, smallBalance, smallUnstable := measure(1)
	largeUTXOs, largeBalance, largeUnstable := measure(50)
	t.Logf("get_utxos %.0f allocations, get_balance %.0f, at %d surviving creations; %.0f and %.0f at %d",
		smallUTXOs, smallBalance, smallUnstable, largeUTXOs, largeBalance, largeUnstable)
	if smallUnstable == 0 || largeUnstable < 200 {
		t.Fatalf("%d and %d surviving unstable creations: the overlays are not the sizes meant", smallUnstable, largeUnstable)
	}
	if smallUTXOs != largeUTXOs || smallBalance != largeBalance {
		t.Fatalf("allocations follow the overlay's size: get_utxos %.0f -> %.0f, get_balance %.0f -> %.0f",
			smallUTXOs, largeUTXOs, smallBalance, largeBalance)
	}
	// get_utxos: context, page, result, token, overlay column and index.
	// get_balance: context, overlay column and index.
	if largeUTXOs > 6 || largeBalance > 3 {
		t.Fatalf("get_utxos allocates %.0f times over an overlay, get_balance %.0f; budgets are 6 and 3", largeUTXOs, largeBalance)
	}
}

// TestApplyBlockAllocations pins the batched staged apply: one staging pass
// (presized arenas and maps) plus one ordered merge per touched bucket,
// followed by a full unapply. A regression toward per-entry allocation
// patterns (bucket reallocations, unsized undo growth) blows the budget.
func TestApplyBlockAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	scripts := make([][]byte, 4)
	for i := range scripts {
		var h [20]byte
		rng.Read(h[:])
		scripts[i] = btc.PayToPubKeyHashScript(h)
	}
	set := utxo.New(btc.Regtest)
	mkBlock := func(n int) *btc.Block {
		blk := &btc.Block{}
		for tr := 0; tr < 50; tr++ {
			tx := &btc.Transaction{Version: 2, Inputs: []btc.TxIn{{
				PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff},
				SignatureScript:  []byte{byte(n), byte(n >> 8), byte(tr), byte(rng.Intn(256))},
			}}}
			for o := 0; o < 4; o++ {
				tx.Outputs = append(tx.Outputs, btc.TxOut{Value: 546, PkScript: scripts[(tr+o)%len(scripts)]})
			}
			blk.Transactions = append(blk.Transactions, tx)
		}
		blk.TxIDs() // seal outside the measured region
		return blk
	}
	// Warm the buckets so merges land in occupied buckets, then measure
	// apply+unapply round trips (distinct blocks each run, same shape).
	if _, _, err := set.ApplyBlock(mkBlock(0), 1); err != nil {
		t.Fatal(err)
	}
	n := 1
	avg := testing.AllocsPerRun(100, func() {
		n++
		blk := mkBlock(n)
		undo, _, err := set.ApplyBlock(blk, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		if err := set.UnapplyBlock(undo); err != nil {
			t.Fatal(err)
		}
	})
	// The block itself costs ~350 allocations to build; staging, commit,
	// and unapply must stay within ~1.3k on top of that for 50 txs / 200
	// outputs, plus slack for runtime noise.
	if avg > 2200 {
		t.Fatalf("apply+unapply of a 200-output block allocates %.0f times, budget is 2200", avg)
	}
}

// TestApplyBlockIngestAllocations pins the tolerant stable fold on a deep
// set (100k+ UTXOs, skewed buckets, a third of the inputs missing). By
// design a fold allocates: the merge's pending list (1); the list of
// touched scripts, doubling to its final size (about 10); per script that
// keeps an output of the block, its sorted height group and — when the
// bucket's group slice is full, so amortized far less than once — that
// slice's growth; and the outpoint table's growth (an arena chunk per 1024
// net new entries, an index doubling far less often). Nothing per input and
// nothing per output: 373 measured here for 347 scripts, where the staged
// fold this replaces spent 2 207 on a block of this shape (five scratch
// maps, a regroup map, per-bucket lists grown by append).
func TestApplyBlockIngestAllocations(t *testing.T) {
	d := newDeepFold(t, 160)
	const runs = 20
	blocks := make([]*btc.Block, runs+1) // AllocsPerRun warms up with one call
	scripts := 0
	for i := range blocks {
		blocks[i] = d.next(t)
		seen := make(map[string]bool)
		for _, tx := range blocks[i].Transactions {
			for _, out := range tx.Outputs {
				seen[string(out.PkScript)] = true
			}
		}
		scripts += len(seen)
	}
	perBlock := float64(scripts) / float64(len(blocks))
	n := 0
	avg := testing.AllocsPerRun(runs, func() {
		d.fold(t, blocks[n])
		n++
	})
	t.Logf("%.0f allocations per fold, %.0f scripts per block", avg, perBlock)
	if budget := 2*perBlock + 40; avg > budget {
		t.Fatalf("fold of a 1001-output block paying %.0f scripts allocates %.0f times, budget is %.0f", perBlock, avg, budget)
	}
}

// TestBalanceAllocations pins the indexed get_balance path: the stable part
// is an O(1) running total, so a cold query against a deep stable bucket
// must stay within a handful of allocations.
func TestBalanceAllocations(t *testing.T) {
	f := experiments.NewFeeder(btc.Regtest, 6, 11)
	var h [20]byte
	h[0] = 0x43
	addr := btc.NewP2PKHAddress(h, btc.Regtest)
	script := btc.PayToAddrScript(addr)
	if _, err := f.FeedBlock([]experiments.TxSpec{{Outputs: experiments.PayN(script, 500, 546)}}); err != nil {
		t.Fatal(err)
	}
	if err := f.FeedEmpty(8); err != nil {
		t.Fatal(err)
	}
	args := canister.GetBalanceArgs{Address: addr.String()}
	avg := testing.AllocsPerRun(200, func() {
		ctx := f.QueryCtx()
		ctx.Kind = ic.KindUpdate // bypass the balance cache, measure the merge
		if _, err := f.Canister.GetBalance(ctx, args); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 4 {
		t.Fatalf("get_balance allocates %.1f times per request, budget is 4", avg)
	}
}

// TestRouteHitAllocations pins what a hot-response cache hit costs the heap:
// nothing. The request's canonical encoding is built by value on RouteQuery's
// stack and the cache is probed with those bytes in place; only a miss copies
// them into a key to store. The digest key this replaced spent 2 allocations
// per hit on get_balance and get_current_fee_percentiles and 3 on get_utxos.
func TestRouteHitAllocations(t *testing.T) {
	f := experiments.NewFeeder(btc.Regtest, 6, 17)
	addr := btc.NewP2PKHAddress([20]byte{0x45}, btc.Regtest)
	if _, err := f.FeedBlock([]experiments.TxSpec{{Outputs: experiments.PayN(btc.PayToAddrScript(addr), 20, 546)}}); err != nil {
		t.Fatal(err)
	}
	if err := f.FeedEmpty(8); err != nil {
		t.Fatal(err)
	}
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 1
	cfg.Coalesce = true
	cfg.CacheEntries = 16
	fleet, err := queryfleet.New(f.Canister, cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0).UTC()
	for _, q := range []struct {
		method string
		arg    any // boxed once, as a caller holding a request has it
	}{
		{"get_balance", canister.GetBalanceArgs{Address: addr.String()}},
		{"get_utxos", canister.GetUTXOsArgs{Address: addr.String(), Limit: 10}},
		{"get_current_fee_percentiles", nil},
	} {
		if rq := fleet.RouteQuery(q.method, q.arg, "client", now); rq.Err != nil {
			t.Fatalf("%s: %v", q.method, rq.Err)
		}
		const runs = 200
		before := fleet.Stats().CacheHits
		avg := testing.AllocsPerRun(runs, func() { fleet.RouteQuery(q.method, q.arg, "client", now) })
		if hits := fleet.Stats().CacheHits - before; hits != runs+1 { // AllocsPerRun warms up with one call
			t.Fatalf("%s: %d of %d routed queries hit the cache", q.method, hits, runs+1)
		}
		if avg > 0 {
			t.Fatalf("%s: a cache hit allocates %.1f times, budget is 0", q.method, avg)
		}
	}
}

// TestBlockDeltaAllocations pins the flat delta on the fold's own workload (a
// 1001-output, 333-spend block over the Fig 7 population, spends resolved
// against a deep set). Building allocates the columns, the key map and the
// passes' scratch — nothing per output, per spend or per key: 25 measured
// where the three-map delta spent 1 174. Decoding appends into the columns
// from a capacity hint and copies scripts into a few chunks, so what grows with
// the block is one string per distinct key: 386 for 367 keys, where the
// map-based decoder spent 2 159 (a list per key, a slice per script).
func TestBlockDeltaAllocations(t *testing.T) {
	d := newDeepFold(t, 40)
	block := d.next(t)
	ids := btc.NewScriptIDCache(btc.Regtest)
	keys := make(map[string]bool)
	resolve := func(op btc.OutPoint, buf []utxo.OwnedOutput) []utxo.OwnedOutput {
		if u, key, ok := d.set.Lookup(op); ok {
			keys[key] = true
			buf = append(buf, utxo.OwnedOutput{AddressKey: key, Value: u.Value})
		}
		return buf
	}
	var delta *utxo.BlockDelta
	build := testing.AllocsPerRun(20, func() {
		delta = utxo.BuildBlockDelta(block, d.height+1, ids, resolve)
	})
	if build > 64 {
		t.Errorf("building a 1001-output delta allocates %.0f times, budget is 64", build)
	}

	for _, tx := range block.Transactions {
		for _, out := range tx.Outputs {
			keys[ids.ID(out.PkScript)] = true
		}
	}
	e := statecodec.NewEncoder("alloc-test\n", 1, 0)
	utxo.EncodeBlockDelta(e, delta)
	wire := e.Finish()
	decode := testing.AllocsPerRun(20, func() {
		dec, err := statecodec.NewDecoder(wire, "alloc-test\n", 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := utxo.DecodeBlockDelta(dec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("build %.0f allocations, decode %.0f for %d keys", build, decode, len(keys))
	if budget := float64(len(keys) + 32); decode > budget {
		t.Fatalf("decoding a delta of %d keys allocates %.0f times, budget is %.0f", len(keys), decode, budget)
	}
}

// TestBlockDeltaAllocationsIndependentOfOutputs: at a fixed key count a
// delta's allocation count does not follow its output count. Blocks of 501
// and 2 001 outputs over the same 200 keys build in the same number of
// allocations, give or take the few tables the key map starts with — its size
// hint is the transaction count.
func TestBlockDeltaAllocationsIndependentOfOutputs(t *testing.T) {
	scripts := make([][]byte, 200)
	for i := range scripts {
		scripts[i] = btc.PayToPubKeyHashScript([20]byte{byte(i), byte(i >> 8), 0x17})
	}
	ids := btc.NewScriptIDCache(btc.Regtest)
	noOwner := func(op btc.OutPoint, buf []utxo.OwnedOutput) []utxo.OwnedOutput { return buf }
	allocs := func(txs int) float64 {
		block := &btc.Block{Transactions: []*btc.Transaction{{Version: 2,
			Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff}}},
			Outputs: []btc.TxOut{{Value: 50, PkScript: scripts[0]}}}}}
		for i := 0; i < txs; i++ {
			block.Transactions = append(block.Transactions, &btc.Transaction{Version: 2, LockTime: uint32(i),
				Inputs: []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.Hash{0xee}, Vout: uint32(i)}}},
				Outputs: []btc.TxOut{
					{Value: 600, PkScript: scripts[2*i%len(scripts)]},
					{Value: 700, PkScript: scripts[(2*i+1)%len(scripts)]},
				}})
		}
		block.TxIDs()
		return testing.AllocsPerRun(20, func() { utxo.BuildBlockDelta(block, 7, ids, noOwner) })
	}
	small, large := allocs(250), allocs(1000)
	t.Logf("%.0f allocations for 501 outputs, %.0f for 2001", small, large)
	if large > small+4 {
		t.Fatalf("a 2001-output delta allocates %.0f times, a 501-output one over the same 200 keys %.0f", large, small)
	}
}

// TestEncodeFrameAllocations: the frame of a parsed 500-transaction block
// carries the block's own wire bytes — the authority does not re-serialize
// what it parsed — and is encoded into one buffer sized up front for those
// bytes and the delta's encoded length, so the encode costs that buffer and
// the delta encoder's key order: 2 allocations. Sized for the block alone,
// the buffer regrew inside the delta, which outweighs the block.
func TestEncodeFrameAllocations(t *testing.T) {
	builder := experiments.NewBlockBuilder(btc.RegtestParams(), 21)
	can := canister.New(canister.DefaultConfig(btc.Regtest))
	var frame *canister.Frame
	can.SetStreamSink(func(f *canister.Frame) { frame = f })
	pop := experiments.NewAddressPopulation(btc.Regtest, 21, 8)
	var parsed *btc.Block
	for h := 0; h < 3; h++ {
		specs := make([]experiments.TxSpec, 500)
		for i := range specs {
			specs[i] = experiments.TxSpec{Inputs: i % 2, Outputs: []btc.TxOut{
				{Value: 700, PkScript: pop.Addresses[(2*i+h)%len(pop.Addresses)].Script},
				{Value: 900, PkScript: pop.Addresses[(2*i+h+1)%len(pop.Addresses)].Script},
			}}
		}
		built, err := builder.NextBlock(specs)
		if err != nil {
			t.Fatal(err)
		}
		if parsed, err = btc.ParseBlock(built.Bytes()); err != nil {
			t.Fatal(err)
		}
		payload := adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: parsed, Header: parsed.Header}}}
		if err := can.ProcessPayload(ic.NewCallContext(ic.KindUpdate, time.Unix(1_700_000_000, 0)), payload); err != nil {
			t.Fatal(err)
		}
	}
	var blockEvents []canister.StreamEvent
	for _, ev := range frame.Events {
		if ev.Kind == canister.EventBlockAttached {
			blockEvents = append(blockEvents, ev)
		}
	}
	if len(blockEvents) != 1 {
		t.Fatalf("the last payload published %d block events, want 1", len(blockEvents))
	}
	if raw := blockEvents[0].RawBlock; &raw[0] != &parsed.Bytes()[0] {
		t.Fatal("the frame carries a re-serialization of the block, not the bytes it was parsed from")
	}
	var raw []byte
	avg := testing.AllocsPerRun(20, func() { raw = canister.EncodeFrame(frame) })
	t.Logf("%.0f allocations for a %d-byte frame", avg, len(raw))
	if avg > 2 {
		t.Fatalf("encoding a one-block frame allocates %.0f times, budget is 2", avg)
	}
}

// deepFold is the stable fold's workload at depth: blocks of 500
// transactions x 2 outputs paying the paper's Fig 7 address population (1000
// addresses, 211 of them holding most of the UTXOs), two of every three
// transactions spending one output of an earlier block, the third a missing
// one. newDeepFold folds preload of them into a fresh set — 160 leave it above
// 100k live UTXOs.
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
