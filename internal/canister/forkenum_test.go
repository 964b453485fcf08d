package canister

import (
	"bytes"
	"fmt"
	"testing"

	"icbtc/internal/btc"
	"icbtc/internal/ic"
)

// TestForkEnumerationAroundAnchor enumerates what difftest samples: at δ = 6,
// every base chain of δ−1…δ+3 blocks × every fork depth 1…δ+2 the chain is
// long enough for × a fork as long as what it displaces and one block longer
// — §II-C's boundary from both sides, the anchor still at genesis and several
// blocks past it, forks rooted above, at and below it. Blocks arrive one per
// payload; after each, oracleCheck holds the canister to the replay oracle.
// The fork's transactions double-spend what the base chain spent and spend
// coinbases that exist only on the branch being displaced.
func TestForkEnumerationAroundAnchor(t *testing.T) {
	const delta = 6
	cases := 0
	for base := delta - 1; base <= delta+3; base++ {
		for depth := 1; depth <= delta+2 && depth <= base; depth++ {
			for _, length := range []int{depth, depth + 1} {
				t.Run(fmt.Sprintf("base=%d/depth=%d/len=%d", base, depth, length), func(t *testing.T) {
					forkCase(t, delta, base, depth, length)
				})
				cases++
			}
		}
	}
	if cases != 68 {
		t.Fatalf("enumerated %d cases, want 68", cases)
	}
}

func forkCase(t *testing.T, delta, base, depth, length int) {
	r := newForgeRig(t)
	confs := []int64{0, 1, int64(delta)}
	addrA, scriptA := testAddr(0xA0)
	addrB, scriptB := testAddr(0xB0)
	addrs := []string{addrA, addrB, "unknown-address"}
	// spend pays most of a block's coinbase to B and 400 to A; tag sets the fee
	// and tells apart the two branches' spends of one coinbase.
	spend := func(b *btc.Block, tag int64) *btc.Transaction {
		tx := spendOf(b.Transactions[0], 0, r.params.BlockSubsidy-1_000*tag)
		tx.Outputs[0].PkScript = scriptB
		tx.Outputs = append(tx.Outputs, btc.TxOut{Value: 400, PkScript: scriptA})
		return tx
	}

	chain := make([]*btc.Block, base+1) // by height; genesis is not a forged block
	parent := r.params.GenesisHeader.BlockHash()
	forkPoint := parent
	lastAnchor := int64(0)
	for h := 1; h <= base; h++ {
		var txs []*btc.Transaction
		if h > 1 {
			txs = append(txs, spend(chain[h-1], int64(h)))
		}
		chain[h] = r.mine(parent, scriptA, txs...)
		parent = chain[h].BlockHash()
		if h == base-depth {
			forkPoint = parent
		}
		r.deliver(chain[h])
		lastAnchor = r.oracleCheck(confs, lastAnchor, addrs)
		if want := max(int64(h-delta+1), 0); lastAnchor != want {
			t.Fatalf("anchor %d after %d blocks, want %d", lastAnchor, h, want)
		}
	}

	// The fork: its block at height k double-spends the coinbase the base
	// chain's block k spent (shared history, or the fork's own previous
	// block) and spends the coinbase of base block k, which the fork displaces.
	fork := make([]*btc.Block, 0, length)
	parent = forkPoint
	for i := 0; i < length; i++ {
		h := base - depth + 1 + i
		var txs []*btc.Transaction
		if i > 0 {
			txs = append(txs, spend(fork[i-1], 50))
		} else if h > 1 {
			txs = append(txs, spend(chain[h-1], 60))
		}
		if h <= base {
			txs = append(txs, spend(chain[h], 70))
		}
		fork = append(fork, r.mine(parent, scriptA, txs...))
		parent = fork[i].BlockHash()
	}

	if int64(base-depth) < lastAnchor {
		// Rooted below the anchor: the parent is gone from the tree, every
		// block is refused, and the refusals are all that changes.
		before := snapshotOf(t, r.can)
		for _, b := range fork {
			if got := r.payload(b); got != 0 {
				t.Fatalf("ingested a block of a fork rooted at height %d, below the anchor at %d", base-depth, lastAnchor)
			}
			r.oracleCheck(confs, lastAnchor, addrs)
		}
		twin, err := RestoreSnapshot(before)
		if err != nil {
			t.Fatal(err)
		}
		twin.rejectedBlocks += len(fork)
		if !bytes.Equal(snapshotOf(t, twin), snapshotOf(t, r.can)) {
			t.Fatal("a fork rooted below the anchor changed more than rejectedBlocks")
		}
		return
	}
	for _, b := range fork {
		r.deliver(b)
		lastAnchor = r.oracleCheck(confs, lastAnchor, addrs)
	}
	// Equal work keeps the first-seen chain; one block more takes the tip.
	if want := int64(base + length - depth); r.can.TipHeight() != want {
		t.Fatalf("tip height %d, want %d", r.can.TipHeight(), want)
	}
}

// TestForkAtPaperDelta runs the canister at the paper's δ = 144: a
// 150-block chain, then a 20-block fork rooted at height 60 that stays
// shorter. Definition II.1 decides by hand what each MinConfirmations c may
// see. Block h of the chain has d_c = 151−h; its competitor on the fork has
// d_c = 81−h, so the chain's blocks at 61…80 are 70-stable and no more. The
// anchor sits at 150−δ+1 = 7, and block 8 is 143-stable. So c = 0 and 1 see
// the tip at 150, and c = δ sees only the anchor. c = 72 sees up to height
// 79 before the fork and up to height 60 after it. At each point get_balance
// and get_utxos at every c must answer exactly as the replay oracle does.
func TestForkAtPaperDelta(t *testing.T) {
	const delta = 144
	r := newForgeRig(t)
	cfg := DefaultConfig(btc.Regtest)
	cfg.StabilityThreshold = delta
	r.can = New(cfg)
	addrA, scriptA := testAddr(0xA0)
	addrB, scriptB := testAddr(0xB0)
	addrs := []string{addrA, addrB}
	confs := []int64{0, 1, delta / 2, delta}
	spend := func(b *btc.Block, tag int64) *btc.Transaction {
		tx := spendOf(b.Transactions[0], 0, r.params.BlockSubsidy-1_000*tag)
		tx.Outputs[0].PkScript = scriptB
		tx.Outputs = append(tx.Outputs, btc.TxOut{Value: 400, PkScript: scriptA})
		return tx
	}
	check := func(stage string, tips map[int64]int64) {
		t.Helper()
		if got := r.oracleCheck(confs, 0, addrs); got != 150-delta+1 {
			t.Fatalf("%s: anchor at %d, want %d", stage, got, 150-delta+1)
		}
		for _, c := range confs {
			res, err := r.can.GetUTXOs(r.ctx(ic.KindQuery), GetUTXOsArgs{Address: addrA, MinConfirmations: c})
			if err != nil {
				t.Fatal(err)
			}
			if res.TipHeight != tips[c] {
				t.Fatalf("%s: c=%d sees the tip at %d, want %d", stage, c, res.TipHeight, tips[c])
			}
		}
	}

	chain := make([]*btc.Block, 151) // by height; genesis is not a forged block
	parent := r.params.GenesisHeader.BlockHash()
	for h := 1; h <= 150; h++ {
		var txs []*btc.Transaction
		if h > 1 {
			txs = append(txs, spend(chain[h-1], 1))
		}
		chain[h] = r.mine(parent, scriptA, txs...)
		parent = chain[h].BlockHash()
		r.deliver(chain[h])
	}
	check("chain", map[int64]int64{0: 150, 1: 150, delta / 2: 79, delta: 7})

	// The fork double-spends each coinbase the chain's next block spends and
	// pays its own coinbases to B; none of it may ever be seen.
	parent = chain[60].BlockHash()
	for h := 61; h <= 80; h++ {
		b := r.mine(parent, scriptB, spend(chain[h-1], 2))
		parent = b.BlockHash()
		r.deliver(b)
	}
	check("fork", map[int64]int64{0: 150, 1: 150, delta / 2: 60, delta: 7})
}

// oracleCheck is the per-payload invariant set: the anchor has not moved
// back; get_balance and every page of get_utxos at each of minConfs answer
// exactly as the replay oracle does, and get_current_fee_percentiles,
// cached and recomputed, exactly as ReplayFeePercentiles; and
// Snapshot → RestoreSnapshot → Snapshot is byte-stable. It returns the anchor.
func (r *forgeRig) oracleCheck(minConfs []int64, lastAnchor int64, addrs []string) int64 {
	r.t.Helper()
	anchor := r.can.AnchorHeight()
	if anchor < lastAnchor {
		r.t.Fatalf("anchor moved back: %d -> %d", lastAnchor, anchor)
	}
	for _, addr := range addrs {
		for _, minConf := range minConfs {
			args := GetBalanceArgs{Address: addr, MinConfirmations: minConf}
			bal, errA := r.can.GetBalance(r.ctx(ic.KindQuery), args)
			want, errB := r.replayBalance(args)
			if ic.ResponseDigest(bal, errA) != ic.ResponseDigest(want, errB) {
				r.t.Fatalf("get_balance(%s, c=%d): overlay %d (%v), replay %d (%v)", addr, minConf, bal, errA, want, errB)
			}
			var tokA, tokB []byte
			for page := 0; ; page++ {
				if page > 100 {
					r.t.Fatalf("get_utxos(%s, c=%d): pagination did not terminate", addr, minConf)
				}
				a, errA := r.can.GetUTXOs(r.ctx(ic.KindQuery), GetUTXOsArgs{Address: addr, MinConfirmations: minConf, Page: tokA, Limit: 2})
				b, errB := ReplayUTXOs(r.can, r.ctx(ic.KindQuery), GetUTXOsArgs{Address: addr, MinConfirmations: minConf, Page: tokB, Limit: 2})
				if ic.ResponseDigest(a, errA) != ic.ResponseDigest(b, errB) {
					r.t.Fatalf("get_utxos(%s, c=%d) page %d: overlay %+v (%v), replay %+v (%v)", addr, minConf, page, a, errA, b, errB)
				}
				if errA != nil || a.NextPage == nil {
					break
				}
				tokA, tokB = a.NextPage, b.NextPage
			}
		}
	}
	r.feeCheck()
	snap := snapshotOf(r.t, r.can)
	restored, err := RestoreSnapshot(snap)
	if err != nil {
		r.t.Fatal(err)
	}
	if !bytes.Equal(snap, snapshotOf(r.t, restored)) {
		r.t.Fatal("Snapshot -> RestoreSnapshot -> Snapshot is not byte-stable")
	}
	return anchor
}
