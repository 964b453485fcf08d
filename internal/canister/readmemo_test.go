package canister

import (
	"strings"
	"testing"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/ic"
	"icbtc/internal/utxo"
)

// memoCategories are every category a get_utxos or get_balance execution
// charges on the overlay read path.
var memoCategories = []string{"request_base", "delta_lookup", "delta_apply", "page_seek",
	"fetch_stable", "fetch_unstable", "sum_balance", "balance_cache_hit"}

// extendPaying mines one block of txs on the rig's tip, its coinbase paying
// payout, and delivers it.
func (r *forgeRig) extendPaying(payout []byte, txs ...*btc.Transaction) *btc.Block {
	r.t.Helper()
	b := r.mine(r.tip, payout, txs...)
	r.tip = b.BlockHash()
	r.deliver(b)
	return b
}

// spend is a transaction spending ins and paying each of pays 1 000 sat.
func spend(ins []btc.OutPoint, pays ...[]byte) *btc.Transaction {
	tx := &btc.Transaction{Version: 2}
	for _, op := range ins {
		tx.Inputs = append(tx.Inputs, btc.TxIn{PreviousOutPoint: op})
	}
	for _, script := range pays {
		tx.Outputs = append(tx.Outputs, btc.TxOut{Value: 1_000, PkScript: script})
	}
	return tx
}

// newMemoRig mines ten blocks whose coinbases pay addrM, the last two also
// spending for it: block 9 spends the stable coinbase of block 1 into two
// outputs for addrM and one for someone else, block 10 spends the first of
// those. With δ = 6 the anchor stands at 5, so addrM's overlay holds stable
// spends, unstable creations and an unstable spend of an unstable creation.
func newMemoRig(t *testing.T) (r *forgeRig, addrM string, scriptM []byte) {
	r = newForgeRig(t)
	addrM, scriptM = testAddr(0xA1)
	_, other := testAddr(0xA2)
	var first *btc.Block
	for h := 1; h <= 8; h++ {
		b := r.extendPaying(scriptM)
		if h == 1 {
			first = b
		}
	}
	tx9 := spend([]btc.OutPoint{{TxID: first.Transactions[0].TxID()}}, scriptM, scriptM, other)
	r.extendPaying(scriptM, tx9)
	r.extendPaying(scriptM, spend([]btc.OutPoint{{TxID: tx9.TxID()}}, scriptM))
	if got := r.can.AnchorHeight(); got != 5 {
		t.Fatalf("anchor %d, want 5", got)
	}
	return r, addrM, scriptM
}

// metered runs one read and returns its meter and response digest.
func metered(c *BitcoinCanister, kind ic.CallKind, arg any) (*ic.Meter, [32]byte) {
	ctx := ic.NewCallContext(kind, time0)
	var digest [32]byte
	switch a := arg.(type) {
	case GetUTXOsArgs:
		v, err := c.GetUTXOs(ctx, a)
		digest = ic.ResponseDigest(v, err)
	case GetBalanceArgs:
		v, err := c.GetBalance(ctx, a)
		digest = ic.ResponseDigest(v, err)
	}
	return ctx.Meter, digest
}

// sameMeter reports whether two meters charged the same total and the same
// amount under every category of the read path.
func sameMeter(a, b *ic.Meter) bool {
	for _, c := range memoCategories {
		if a.Category(c) != b.Category(c) {
			return false
		}
	}
	return a.Total() == b.Total()
}

// oracleDigest answers a read with the replay oracle.
func oracleDigest(c *BitcoinCanister, arg any) [32]byte {
	ctx := ic.NewCallContext(ic.KindQuery, time0)
	switch a := arg.(type) {
	case GetUTXOsArgs:
		return ic.ResponseDigest(ReplayUTXOs(c, ctx, a))
	case GetBalanceArgs:
		return ic.ResponseDigest(ReplayBalance(c, ctx, a))
	}
	panic("oracleDigest: not a read")
}

// TestReadMemoMetersAsBuild: a query that finds its overlay in the memo is
// charged what building it costs — the same total and the same categories —
// for get_utxos, and for a get_balance whose balance is not memoized yet; a
// memoized balance costs CostBalanceCacheHit, as before the overlay joined
// the memo.
func TestReadMemoMetersAsBuild(t *testing.T) {
	r, addrM, _ := newMemoRig(t)
	for _, minConf := range []int64{0, 2} {
		utxos := GetUTXOsArgs{Address: addrM, MinConfirmations: minConf}
		balance := GetBalanceArgs{Address: addrM, MinConfirmations: minConf}
		buildU, wantU := metered(r.can, ic.KindUpdate, utxos)
		buildB, wantB := metered(r.can, ic.KindUpdate, balance)
		if buildU.Category("delta_apply") == 0 {
			t.Fatalf("c=%d: the overlay holds nothing; the test is vacuous", minConf)
		}
		for _, step := range []struct {
			name   string
			arg    any
			meter  *ic.Meter
			answer [32]byte
		}{
			{"get_utxos miss", utxos, buildU, wantU},
			{"get_utxos hit", utxos, buildU, wantU},
			{"get_balance on a memoized overlay", balance, buildB, wantB},
		} {
			m, got := metered(r.can, ic.KindQuery, step.arg)
			if !sameMeter(m, step.meter) {
				t.Fatalf("c=%d, %s: metered %d (delta_apply %d), a build %d (delta_apply %d)", minConf, step.name,
					m.Total(), m.Category("delta_apply"), step.meter.Total(), step.meter.Category("delta_apply"))
			}
			if got != step.answer {
				t.Fatalf("c=%d, %s: answer differs from the replicated execution's", minConf, step.name)
			}
		}
		m, got := metered(r.can, ic.KindQuery, balance)
		if m.Total() != ic.CostRequestBase+ic.CostBalanceCacheHit || m.Category("balance_cache_hit") == 0 || got != wantB {
			t.Fatalf("c=%d: memoized balance metered %d, want request base + cache hit", minConf, m.Total())
		}
	}
	// A balance asked first builds the overlay itself, metered as a build.
	balance := GetBalanceArgs{Address: addrM, MinConfirmations: 1}
	build, _ := metered(r.can, ic.KindUpdate, balance)
	if m, _ := metered(r.can, ic.KindQuery, balance); !sameMeter(m, build) {
		t.Fatalf("fresh get_balance metered %d, build %d", m.Total(), build.Total())
	}
}

// TestReadMemoIgnoresUpdates: a replicated execution neither fills the memo
// nor reads it, so what queries ran before it cannot change its answer or
// its metering.
func TestReadMemoIgnoresUpdates(t *testing.T) {
	r, addrM, _ := newMemoRig(t)
	utxos := GetUTXOsArgs{Address: addrM}
	balance := GetBalanceArgs{Address: addrM}
	buildU, wantU := metered(r.can, ic.KindUpdate, utxos)
	buildB, wantB := metered(r.can, ic.KindUpdate, balance)
	if n := r.can.ReadMemoSize(); n != 0 {
		t.Fatalf("replicated executions filled %d memo entries", n)
	}
	metered(r.can, ic.KindQuery, balance)
	if n := r.can.ReadMemoSize(); n != 1 {
		t.Fatalf("a query left %d memo entries, want 1", n)
	}
	// Poison the entry: a reader would serve an empty page and balance -1.
	key := readKey{addrM, 0}
	m := r.can.reads.byKey[key]
	m.ov, m.kept, m.balance, m.summed = utxo.AddressOverlay{}, true, -1, true
	r.can.reads.byKey[key] = m
	for _, c := range []struct {
		arg   any
		build *ic.Meter
		want  [32]byte
	}{{utxos, buildU, wantU}, {balance, buildB, wantB}} {
		m, got := metered(r.can, ic.KindUpdate, c.arg)
		if got != c.want || !sameMeter(m, c.build) {
			t.Fatalf("%T: a replicated execution read the memo", c.arg)
		}
	}
	if got, _ := metered(r.can, ic.KindQuery, balance); got.Category("balance_cache_hit") == 0 {
		t.Fatal("the poisoned entry was not what a query reads; the test is vacuous")
	}
}

// TestReadMemoCoherentAcrossMutations warms the memo on an authority and on
// a replica that follows it frame by frame, then mutates the tree — a block
// attach, a header-only payload, anchor advances — and checks that the next
// answers equal the replay oracle's at the new state, and that a query still
// meters what a build does (a memo that outlived a header would charge one
// delta lookup short).
func TestReadMemoCoherentAcrossMutations(t *testing.T) {
	r, addrM, scriptM := newMemoRig(t)
	frames := collectFrames(t, r.can)
	replica, err := RestoreSnapshot(snapshotOf(t, r.can))
	if err != nil {
		t.Fatal(err)
	}
	replica.WarmQueryState()
	applied := 0
	reads := []any{
		GetUTXOsArgs{Address: addrM}, GetUTXOsArgs{Address: addrM, MinConfirmations: 2},
		GetUTXOsArgs{Address: addrM, Limit: 3}, GetBalanceArgs{Address: addrM},
		GetBalanceArgs{Address: addrM, MinConfirmations: 3},
	}
	check := func(step string) {
		t.Helper()
		for applied < len(*frames) {
			if err := replica.ApplyFrame((*frames)[applied]); err != nil {
				t.Fatalf("%s: apply frame %d: %v", step, applied, err)
			}
			applied++
		}
		for _, c := range []*BitcoinCanister{r.can, replica} {
			for round := 0; round < 2; round++ { // a miss, then a hit
				for _, arg := range reads {
					m, got := metered(c, ic.KindQuery, arg)
					if got != oracleDigest(c, arg) {
						t.Fatalf("%s: %+v differs from the replay oracle", step, arg)
					}
					if build, _ := metered(c, ic.KindUpdate, arg); round == 0 && !sameMeter(m, build) {
						t.Fatalf("%s: %+v metered %d, a build %d", step, arg, m.Total(), build.Total())
					}
				}
			}
		}
	}
	check("start")

	r.extendPaying(scriptM, spend([]btc.OutPoint{{TxID: btc.DoubleSHA256([]byte("alien"))}}, scriptM))
	check("block attach")

	next := r.mine(r.tip, scriptM)
	if err := r.can.ProcessPayload(r.ctx(ic.KindUpdate), adapter.Response{Next: []btc.BlockHeader{next.Header}}); err != nil {
		t.Fatal(err)
	}
	if r.can.TipHeight() != 12 {
		t.Fatalf("tip %d after the header-only payload, want 12", r.can.TipHeight())
	}
	check("header-only payload")

	r.tip = next.BlockHash()
	r.deliver(next)
	anchor := r.can.AnchorHeight()
	check("the header's block")
	for i := 0; i < 3; i++ {
		r.extendPaying(scriptM)
		check("anchor advance")
	}
	if r.can.AnchorHeight() <= anchor || applied == 0 {
		t.Fatalf("anchor %d -> %d over %d frames: the test is vacuous", anchor, r.can.AnchorHeight(), applied)
	}
}

// TestReadMemoFloodStopsAtBudget floods the heaviest address with distinct
// confirmation filters (every value ≤ 0 is the unfiltered view): the memo
// keeps overlays until their delta entries would pass the unstable deltas'
// own, serves the rest built, and every answer equals the oracle's.
func TestReadMemoFloodStopsAtBudget(t *testing.T) {
	r, addrM, _ := newMemoRig(t)
	budget := 0
	for _, n := range r.can.currentChain()[1:] {
		budget += n.Aux().(*utxo.BlockDelta).Entries()
	}
	const flood = 40
	for i := int64(0); i < flood; i++ {
		for _, arg := range []any{GetUTXOsArgs{Address: addrM, MinConfirmations: -i}, GetBalanceArgs{Address: addrM, MinConfirmations: -i}} {
			for round := 0; round < 2; round++ {
				if _, got := metered(r.can, ic.KindQuery, arg); got != oracleDigest(r.can, arg) {
					t.Fatalf("%+v (round %d) differs from the replay oracle", arg, round)
				}
			}
		}
	}
	memo := &r.can.reads
	per := memo.byKey[readKey{addrM, 0}].entries
	kept := 0
	for _, m := range memo.byKey {
		if m.kept {
			kept++
		}
	}
	if per == 0 || budget/per >= flood {
		t.Fatalf("%d entries an overlay against a budget of %d: the flood never reaches it", per, budget)
	}
	if memo.budget != budget || memo.entries > budget || kept != budget/per || len(memo.byKey) != flood {
		t.Fatalf("memo holds %d entries in %d kept overlays of %d reads, budget %d (counted %d); want %d kept",
			memo.entries, kept, len(memo.byKey), budget, memo.budget, budget/per)
	}
}

// TestScriptOwnerIsScriptID pins the replay oracle's owner test to the
// question it replaces: for the templates ScriptID files under an address
// (P2PKH, P2WPKH), on either network, and for scripts it files under a
// script hash, scriptOwner(a)(s) holds exactly when ScriptID(s) == a —
// also for keys that parse but are not canonical, and for keys that do not
// parse.
func TestScriptOwnerIsScriptID(t *testing.T) {
	var scripts [][]byte
	var keys []string
	for _, network := range []btc.Network{btc.Regtest, btc.Mainnet} {
		for _, b := range []byte{0x00, 0x01, 0xA1, 0xFF} {
			h := [20]byte{b, 2, 3}
			h[19] = b
			for _, a := range []btc.Address{btc.NewP2PKHAddress(h, network), btc.NewP2WPKHAddress(h, network)} {
				s := btc.PayToAddrScript(a)
				flipped := append([]byte(nil), s...)
				flipped[len(flipped)-1] ^= 1
				scripts = append(scripts, s, flipped, s[:len(s)-1], append(append([]byte(nil), s...), 0x00))
				keys = append(keys, a.String(), strings.ToUpper(a.String()), a.String()+"x")
			}
		}
	}
	for _, s := range [][]byte{nil, {0x6a}, {0x51, 0x52}} {
		scripts = append(scripts, s)
	}
	for _, s := range scripts {
		keys = append(keys, btc.ScriptID(s, btc.Regtest))
	}
	keys = append(keys, "", "script:", "nobody")
	for _, network := range []btc.Network{btc.Regtest, btc.Mainnet} {
		for _, key := range keys {
			owns := scriptOwner(key, network)
			for _, s := range scripts {
				if got, want := owns(s), btc.ScriptID(s, network) == key; got != want {
					t.Fatalf("network %v, key %q, script %x: owner test %v, ScriptID says %v", network, key, s, got, want)
				}
			}
		}
	}
}
