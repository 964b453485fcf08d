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
		lastAnchor = r.oracleCheck(delta, lastAnchor, addrs)
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
			r.oracleCheck(delta, lastAnchor, addrs)
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
		lastAnchor = r.oracleCheck(delta, lastAnchor, addrs)
	}
	// Equal work keeps the first-seen chain; one block more takes the tip.
	if want := int64(base + length - depth); r.can.TipHeight() != want {
		t.Fatalf("tip height %d, want %d", r.can.TipHeight(), want)
	}
}

// oracleCheck is the per-payload invariant set: the anchor has not moved
// back; get_balance and every page of get_utxos at MinConfirmations 0, 1 and
// δ answer exactly as the replay oracle does, and get_current_fee_percentiles,
// cached and recomputed, exactly as ReplayFeePercentiles; and
// Snapshot → RestoreSnapshot → Snapshot is byte-stable. It returns the anchor.
func (r *forgeRig) oracleCheck(delta int, lastAnchor int64, addrs []string) int64 {
	r.t.Helper()
	anchor := r.can.AnchorHeight()
	if anchor < lastAnchor {
		r.t.Fatalf("anchor moved back: %d -> %d", lastAnchor, anchor)
	}
	for _, addr := range addrs {
		for _, minConf := range []int64{0, 1, int64(delta)} {
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
