package canister

import (
	"fmt"
	"testing"

	"icbtc/internal/btc"
	"icbtc/internal/ic"
)

func (r *forgeRig) percentiles(kind ic.CallKind) ([]int64, *ic.CallContext) {
	ctx := r.ctx(kind)
	p, err := r.can.GetCurrentFeePercentiles(ctx)
	if err != nil {
		r.t.Fatal(err)
	}
	return p, ctx
}

// spendOf builds a transaction consuming one output of a previous tx with
// the given output value; the difference is the fee.
func spendOf(prev *btc.Transaction, vout uint32, outValue int64) *btc.Transaction {
	return &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: prev.TxID(), Vout: vout}, Sequence: 0xffffffff}},
		Outputs: []btc.TxOut{{Value: outValue, PkScript: btc.PayToPubKeyHashScript([20]byte{0x77})}},
	}
}

func rateOf(tx *btc.Transaction, fee int64) int64 {
	return fee * 1000 / int64(tx.SerializedSize())
}

// feeCheck holds get_current_fee_percentiles to ReplayFeePercentiles: the
// query answer twice (the second from the cache) and the update-kind
// recompute must equal the oracle's answer, and the recompute must meter what
// the oracle does. It returns the answer.
func (r *forgeRig) feeCheck() []int64 {
	r.t.Helper()
	oracleCtx := r.ctx(ic.KindUpdate)
	want, errW := ReplayFeePercentiles(r.can, oracleCtx)
	for round := 0; round < 2; round++ {
		got, err := r.can.GetCurrentFeePercentiles(r.ctx(ic.KindQuery))
		if ic.ResponseDigest(got, err) != ic.ResponseDigest(want, errW) {
			r.t.Fatalf("get_current_fee_percentiles query %d: %v (%v), replay %v (%v)", round, got, err, want, errW)
		}
	}
	updCtx := r.ctx(ic.KindUpdate)
	got, err := r.can.GetCurrentFeePercentiles(updCtx)
	if ic.ResponseDigest(got, err) != ic.ResponseDigest(want, errW) {
		r.t.Fatalf("get_current_fee_percentiles recomputed: %v (%v), replay %v (%v)", got, err, want, errW)
	}
	if u, o := updCtx.Meter.Total(), oracleCtx.Meter.Total(); u != o {
		r.t.Fatalf("get_current_fee_percentiles recomputed: metered %d, replay %d", u, o)
	}
	return want
}

// payOut spends one output of prev into one output per value.
func payOut(prev *btc.Transaction, vout uint32, values ...int64) *btc.Transaction {
	tx := spendOf(prev, vout, 0)
	tx.Outputs = tx.Outputs[:0]
	for i, v := range values {
		tx.Outputs = append(tx.Outputs, btc.TxOut{Value: v, PkScript: btc.PayToPubKeyHashScript([20]byte{0x78, byte(i)})})
	}
	return tx
}

// feeEnum runs one case of TestFeeRescanEnumeration: a rig whose first pre
// blocks hold the coinbases the case spends.
type feeEnum struct {
	*forgeRig
	chain     []*btc.Block // every block delivered on the tip, in order
	coinbases []*btc.Transaction
	forged    bool
	priced    bool // some answer so far had a nonzero rate
}

// cb returns a coinbase to spend; i past the ones there are wraps around.
func (e *feeEnum) cb(i int) *btc.Transaction { return e.coinbases[i%len(e.coinbases)] }

// block mines txs on the tip, delivers the block and checks.
func (e *feeEnum) block(txs ...*btc.Transaction) *btc.Block {
	e.t.Helper()
	b := e.extend(txs...)
	e.chain = append(e.chain, b)
	e.check()
	return b
}

// forgedBlock is block with transaction i swapped for like after mining: the
// block keeps the txid and Merkle root the original transaction gave it, so
// like carries that txid with outputs of its own — a repeated txid whose
// output count differs, which no hashed block can carry.
func (e *feeEnum) forgedBlock(i int, like *btc.Transaction, txs ...*btc.Transaction) *btc.Block {
	e.t.Helper()
	b := e.mine(e.tip, rigPayout, txs...)
	b.Transactions[i] = like
	e.tip = b.BlockHash()
	e.deliver(b)
	e.chain = append(e.chain, b)
	e.forged = true
	e.check()
	return b
}

// check is feeCheck on the rig and on its snapshot restored: the restored
// canister must agree with its own oracle, and — where no block carries a
// forged txid, whose restored bytes hash to their real one — with the rig.
func (e *feeEnum) check() {
	e.t.Helper()
	got := e.feeCheck()
	e.priced = e.priced || got[100] > 0
	restored, err := RestoreSnapshot(snapshotOf(e.t, e.can))
	if err != nil {
		e.t.Fatal(err)
	}
	twin := *e.forgeRig
	twin.can = restored
	if again := twin.feeCheck(); !e.forged && ic.ResponseDigest(again, nil) != ic.ResponseDigest(got, nil) {
		e.t.Fatalf("restored canister answers %v, the one it was taken from %v", again, got)
	}
}

// TestFeeRescanEnumeration holds the txid-index rescan to ReplayFeePercentiles,
// the outpoint-map rescan it replaced, on every shape where the two could part:
// a txid repeated inside a block and across blocks (with as many outputs, and
// with fewer through a forged txid), spend chains inside one block in and out
// of order, one output spent by two blocks, inputs nothing created (an unknown
// txid, an output index past a known transaction's outputs) and outputs
// exceeding inputs. Each case runs with 1, 4 and 8 coinbase blocks before it —
// its inputs unstable, some stable, all stable by the time it spends them —
// and each is then displaced by a reorg of depth 1 and 2 whose heavier branch
// carries all it displaced in one block, and extended past δ until its blocks
// have all folded. After every payload the answer is checked, and again on
// the canister's snapshot restored.
func TestFeeRescanEnumeration(t *testing.T) {
	const sub = 5_000_000_000 // the regtest subsidy
	cases := []struct {
		name string
		run  func(e *feeEnum)
	}{
		{"repeated in a block", func(e *feeEnum) {
			tx := payOut(e.cb(0), 0, sub-4_000, 900)
			e.block(tx, tx, spendOf(tx, 1, 700))
			e.block(spendOf(tx, 0, sub-9_000))
		}},
		{"repeated across blocks", func(e *feeEnum) {
			tx := payOut(e.cb(0), 0, sub-4_000, 900)
			e.block(tx)
			e.block(spendOf(e.cb(1), 0, sub-1_000), tx, spendOf(tx, 1, 600))
			e.block(spendOf(tx, 0, sub-9_000), tx)
		}},
		{"repeated with fewer outputs", func(e *feeEnum) {
			wide := payOut(e.cb(0), 0, sub-6_000, 1_000, 2_000)
			narrow := payOut(e.cb(0), 0, sub-3_000) // carries wide's txid once forged
			e.block(wide)
			// Inside the forged block, wide:0 is narrow's, wide:2 still wide's.
			e.forgedBlock(1, narrow, wide, spendOf(wide, 0, sub-8_000), spendOf(wide, 2, 1_500))
			e.block(spendOf(wide, 1, 400), spendOf(wide, 2, 1_800))
		}},
		{"spend chain in a block", func(e *feeEnum) {
			t1 := spendOf(e.cb(0), 0, sub-1_000)
			t2 := spendOf(t1, 0, sub-3_000)
			t3 := spendOf(t2, 0, sub-3_500)
			// u2 comes before the u1 it spends: unresolved when it is priced.
			u1 := spendOf(e.cb(1), 0, sub-2_000)
			u2 := spendOf(u1, 0, sub-2_100)
			e.block(t1, t2, t3, u2, u1)
			e.block(spendOf(t3, 0, sub-4_000), spendOf(u2, 0, sub-2_500))
		}},
		{"double spend across blocks", func(e *feeEnum) {
			e.block(spendOf(e.cb(0), 0, sub-1_000))
			e.block(spendOf(e.cb(0), 0, sub-7_000), spendOf(e.cb(0), 0, sub-2_000))
			e.block(spendOf(e.cb(0), 0, sub-500))
		}},
		{"alien inputs", func(e *feeEnum) {
			known := payOut(e.cb(0), 0, sub-2_000, 300)
			alien := spendOf(&btc.Transaction{Version: 9}, 0, 100)
			e.block(known, alien, spendOf(known, 2, 50))
			e.block(spendOf(known, 1, 100), spendOf(e.cb(1), 7, 10), spendOf(alien, 0, 10))
		}},
		{"negative and zero fees", func(e *feeEnum) {
			e.block(spendOf(e.cb(0), 0, sub+1), spendOf(e.cb(1), 0, sub), spendOf(e.cb(2), 0, sub-1_200))
			e.block(spendOf(e.cb(3), 0, sub+5_000), spendOf(e.cb(4), 0, sub-800))
		}},
	}
	runs := 0
	for _, c := range cases {
		for _, pre := range []int{1, 4, 8} {
			for _, depth := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/pre=%d/reorg=%d", c.name, pre, depth), func(t *testing.T) {
					e := &feeEnum{forgeRig: newForgeRig(t)}
					for i := 0; i < pre; i++ {
						e.coinbases = append(e.coinbases, e.block().Transactions[0])
					}
					c.run(e)
					if len(e.chain)-pre < depth {
						t.Fatalf("the case mined %d blocks, fewer than the reorg displaces", len(e.chain)-pre)
					}
					// The heavier branch: every transaction the reorg displaces, in
					// one block, then empty blocks.
					old := e.chain[len(e.chain)-depth:]
					var displaced []*btc.Transaction
					for _, b := range old {
						displaced = append(displaced, b.Transactions[1:]...)
					}
					branch := []*btc.Block{e.mine(old[0].Header.PrevBlock, rigPayout, displaced...)}
					for len(branch) <= depth {
						branch = append(branch, e.mine(branch[len(branch)-1].BlockHash(), rigPayout))
					}
					e.tip = branch[len(branch)-1].BlockHash()
					e.deliver(branch...)
					e.check()
					end := e.can.TipHeight()
					for i := 0; i < 8; i++ {
						e.block()
					}
					if e.can.AnchorHeight() < end {
						t.Fatalf("anchor at %d: the case's blocks, up to height %d, have not all folded", e.can.AnchorHeight(), end)
					}
					if !e.priced {
						t.Fatal("no answer priced a transaction: the case is vacuous")
					}
				})
				runs++
			}
		}
	}
	if runs != 42 {
		t.Fatalf("enumerated %d runs, want 42", runs)
	}
}

// TestFeePercentilesKnownRates pins the percentile arithmetic with
// hand-built fees: one priced transaction yields a flat vector at its rate;
// a second, cheaper one splits the distribution.
func TestFeePercentilesKnownRates(t *testing.T) {
	r := newForgeRig(t)
	b1 := r.extend() // coinbase to spend
	tx1 := spendOf(b1.Transactions[0], 0, r.params.BlockSubsidy-9_000)
	r.extend(tx1)
	p, _ := r.percentiles(ic.KindQuery)
	if len(p) != FeePercentilesCount {
		t.Fatalf("got %d percentiles, want %d", len(p), FeePercentilesCount)
	}
	want1 := rateOf(tx1, 9_000)
	for i, v := range p {
		if v != want1 {
			t.Fatalf("p%d = %d, want flat %d", i, v, want1)
		}
	}
	// A second transaction at a lower rate becomes the low percentiles.
	tx2 := spendOf(tx1, 0, tx1.Outputs[0].Value-1_000)
	r.extend(tx2)
	want2 := rateOf(tx2, 1_000)
	if want2 >= want1 {
		t.Fatalf("test fees not ordered: %d >= %d", want2, want1)
	}
	p, _ = r.percentiles(ic.KindQuery)
	if p[0] != want2 || p[100] != want1 {
		t.Fatalf("p0=%d p100=%d, want %d and %d", p[0], p[100], want2, want1)
	}
}

// TestFeePercentilesAlienInputSkipped: a transaction spending an outpoint
// the canister never tracked cannot be priced and must be skipped, leaving
// the distribution to the resolvable traffic only.
func TestFeePercentilesAlienInputSkipped(t *testing.T) {
	r := newForgeRig(t)
	b1 := r.extend()
	alien := &btc.Transaction{
		Version: 2,
		Inputs: []btc.TxIn{{
			PreviousOutPoint: btc.OutPoint{TxID: btc.DoubleSHA256([]byte("alien")), Vout: 3},
			Sequence:         0xffffffff,
		}},
		Outputs: []btc.TxOut{{Value: 123, PkScript: btc.PayToPubKeyHashScript([20]byte{0x01})}},
	}
	// Only alien traffic: every transaction is skipped, percentiles all 0.
	r.extend(alien)
	p, _ := r.percentiles(ic.KindQuery)
	for i, v := range p {
		if v != 0 {
			t.Fatalf("p%d = %d with only unpriceable traffic, want 0", i, v)
		}
	}
	// Alien + priceable in one block: only the priceable one counts.
	tx := spendOf(b1.Transactions[0], 0, r.params.BlockSubsidy-7_000)
	alien2 := *alien
	alien2.Outputs = []btc.TxOut{{Value: 321, PkScript: btc.PayToPubKeyHashScript([20]byte{0x02})}}
	r.extend(tx, &alien2)
	p, _ = r.percentiles(ic.KindQuery)
	want := rateOf(tx, 7_000)
	for i, v := range p {
		if v != want {
			t.Fatalf("p%d = %d, want %d (alien tx must not contribute)", i, v, want)
		}
	}
}

// TestFeePercentilesAcrossReorg: after a heavier branch displaces the
// chain, the distribution must reflect the new current chain's
// transactions only.
func TestFeePercentilesAcrossReorg(t *testing.T) {
	r := newForgeRig(t)
	b1 := r.extend()
	forkPoint := r.tip
	tx1 := spendOf(b1.Transactions[0], 0, r.params.BlockSubsidy-9_000)
	r.extend(tx1)
	p, _ := r.percentiles(ic.KindQuery)
	if want := rateOf(tx1, 9_000); p[50] != want {
		t.Fatalf("pre-reorg p50 = %d, want %d", p[50], want)
	}

	// Heavier branch from the fork point carrying a different fee.
	tx2 := spendOf(b1.Transactions[0], 0, r.params.BlockSubsidy-2_000)
	c2 := r.mine(forkPoint, rigPayout, tx2)
	c3 := r.mine(c2.BlockHash(), rigPayout)
	r.deliver(c2, c3)
	if r.can.TipHeight() != 3 {
		t.Fatalf("tip height %d after reorg, want 3", r.can.TipHeight())
	}
	r.tip = c3.BlockHash()
	p, _ = r.percentiles(ic.KindQuery)
	want2 := rateOf(tx2, 2_000)
	for i, v := range p {
		if v != want2 {
			t.Fatalf("post-reorg p%d = %d, want %d (losing branch must not contribute)", i, v, want2)
		}
	}
}

// TestFeePercentilesCacheCoherence: query executions must serve repeat fee
// quotes from the per-tip cache (cheaper, identical values), recompute
// after every tree change, and stay equal to the uncached computation
// throughout. Update executions never touch the cache — replicated
// execution stays deterministic regardless of query history — which makes
// an update-kind call the uncached oracle.
func TestFeePercentilesCacheCoherence(t *testing.T) {
	overlay := newForgeRig(t)
	b1 := overlay.extend()
	tx := spendOf(b1.Transactions[0], 0, overlay.params.BlockSubsidy-5_000)
	overlay.extend(tx)

	cold, coldCtx := overlay.percentiles(ic.KindQuery)
	if coldCtx.Meter.Category("fee_cache_hit") != 0 {
		t.Fatal("first query claimed a cache hit")
	}
	warm, warmCtx := overlay.percentiles(ic.KindQuery)
	if warmCtx.Meter.Category("fee_cache_hit") == 0 {
		t.Fatal("second query at the same tip missed the cache")
	}
	if warmCtx.Meter.Total() >= coldCtx.Meter.Total() {
		t.Fatalf("cache hit cost %d >= cold cost %d", warmCtx.Meter.Total(), coldCtx.Meter.Total())
	}
	oracle, _ := overlay.percentiles(ic.KindUpdate)
	for i := range cold {
		if cold[i] != warm[i] || cold[i] != oracle[i] {
			t.Fatalf("p%d: cold %d warm %d oracle %d", i, cold[i], warm[i], oracle[i])
		}
	}
	// The cached slice must be insulated from caller mutation.
	warm[13] = -1
	again, _ := overlay.percentiles(ic.KindQuery)
	if again[13] == -1 {
		t.Fatal("cache returned a caller-mutable shared slice")
	}

	// A new block moves the tip: the cache must invalidate.
	overlay.extend(spendOf(tx, 0, tx.Outputs[0].Value-1_500))
	fresh, freshCtx := overlay.percentiles(ic.KindQuery)
	if freshCtx.Meter.Category("fee_cache_hit") != 0 {
		t.Fatal("query after a tree change was served from the stale cache")
	}
	oracle, _ = overlay.percentiles(ic.KindUpdate)
	for i := range fresh {
		if fresh[i] != oracle[i] {
			t.Fatalf("post-invalidation p%d: overlay %d oracle %d", i, fresh[i], oracle[i])
		}
	}
	// Update executions bypass the cache entirely.
	_, updCtx := overlay.percentiles(ic.KindUpdate)
	if updCtx.Meter.Category("fee_cache_hit") != 0 {
		t.Fatal("update execution read the query cache")
	}
}

// TestGetBlockHeadersRangeValidation covers the endpoint's range handling:
// rejections for inverted and beyond-tip ranges, clamping, and the
// stable/unstable join at the anchor boundary.
func TestGetBlockHeadersRangeValidation(t *testing.T) {
	r := newForgeRig(t)
	headers := []btc.BlockHeader{r.params.GenesisHeader}
	for i := 0; i < 10; i++ {
		headers = append(headers, r.extend().Header)
	}
	tip := r.can.TipHeight()       // 10
	anchor := r.can.AnchorHeight() // 4 with δ=6
	if anchor == 0 || anchor >= tip {
		t.Fatalf("degenerate topology: anchor %d tip %d", anchor, tip)
	}

	q := func(start, end int64) (*GetBlockHeadersResult, error) {
		return r.can.GetBlockHeaders(r.ctx(ic.KindQuery), GetBlockHeadersArgs{StartHeight: start, EndHeight: end})
	}

	// start beyond the tip (end defaulting to the tip) is rejected.
	if _, err := q(tip+1, 0); err == nil {
		t.Fatal("start > tip accepted")
	}
	// Inverted range is rejected.
	if _, err := q(5, 3); err == nil {
		t.Fatal("inverted range accepted")
	}
	// Negative start is rejected.
	if _, err := q(-1, 3); err == nil {
		t.Fatal("negative start accepted")
	}
	// end beyond the tip clamps to the tip.
	res, err := q(tip-1, tip+100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Headers) != 2 || res.TipHeight != tip {
		t.Fatalf("clamped range returned %d headers, tip %d", len(res.Headers), res.TipHeight)
	}

	// A range spanning the anchor boundary joins the stable history and the
	// unstable tree seamlessly: heights start..end, no gap, no duplicate.
	res, err = q(anchor-1, anchor+2)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(4); len(res.Headers) != want {
		t.Fatalf("anchor-spanning range returned %d headers, want %d", len(res.Headers), want)
	}
	for i, h := range res.Headers {
		wantHeight := anchor - 1 + int64(i)
		if h.BlockHash() != headers[wantHeight].BlockHash() {
			t.Fatalf("header %d of the anchor-spanning range is not the chain header at height %d", i, wantHeight)
		}
	}

	// The full range returns every header from genesis to the tip.
	res, err = q(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Headers) != int(tip)+1 {
		t.Fatalf("full range returned %d headers, want %d", len(res.Headers), tip+1)
	}
	for i, h := range res.Headers {
		if h.BlockHash() != headers[i].BlockHash() {
			t.Fatalf("full-range header %d mismatches chain height %d", i, i)
		}
	}
	// Single-height range at the exact anchor.
	res, err = q(anchor, anchor)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Headers) != 1 || res.Headers[0].BlockHash() != headers[anchor].BlockHash() {
		t.Fatalf("anchor-only range wrong: %d headers", len(res.Headers))
	}

	// Across a fork. A competing branch of lower work hangs off height tip-3
	// and stops one short of the tip: the answer — read from the chain the
	// queries above left cached — is still the main chain's. Two more blocks
	// on the branch make it the heavier one, and the answer follows it.
	branch := headers[: tip-2 : tip-2]
	side := headers[tip-3].BlockHash()
	growBranch := func(n int) {
		for i := 0; i < n; i++ {
			b := r.mine(side, rigPayout)
			side = b.BlockHash()
			r.deliver(b)
			branch = append(branch, b.Header)
		}
	}
	growBranch(2)
	sameHeaders := func(what string, start int64, want []btc.BlockHeader) {
		t.Helper()
		res, err := q(start, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Headers) != len(want) || res.TipHeight != start+int64(len(want))-1 {
			t.Fatalf("%s: %d headers to tip %d, want %d", what, len(res.Headers), res.TipHeight, len(want))
		}
		for i, h := range res.Headers {
			if h.BlockHash() != want[i].BlockHash() {
				t.Fatalf("%s: header at height %d is not the current chain's", what, start+int64(i))
			}
		}
	}
	sameHeaders("lighter branch beside the chain", 0, headers)
	sameHeaders("lighter branch beside the chain, from the fork point", tip-3, headers[tip-3:])
	growBranch(2)
	anchor = r.can.AnchorHeight()
	sameHeaders("after the branch overtook", 0, branch)
	sameHeaders("after the branch overtook, across the anchor", anchor-1, branch[anchor-1:])
}
