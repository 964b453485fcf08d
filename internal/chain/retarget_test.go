package chain

import (
	"math/big"
	"testing"
	"time"

	"icbtc/internal/btc"
)

// retargetParams builds a network that retargets every 4 blocks with a 10s
// target interval, easy enough to mine in tests.
func retargetParams() *btc.Params {
	p := btc.RegtestParams()
	p.DifficultyAdjustmentWindow = 4
	p.TargetBlockInterval = 10 * time.Second
	return p
}

// mineChild grinds a header extending parent with the expected bits and the
// given timestamp.
func mineChild(t *testing.T, tree *Tree, parent *Node, params *btc.Params, ts uint32) *Node {
	t.Helper()
	h := btc.BlockHeader{
		Version:    1,
		PrevBlock:  parent.Hash,
		MerkleRoot: btc.DoubleSHA256([]byte{byte(ts), byte(ts >> 8), byte(ts >> 16), byte(ts >> 24)}),
		Timestamp:  ts,
		Bits:       ExpectedBits(parent, params),
	}
	if err := btc.MineHeader(&h); err != nil {
		t.Fatal(err)
	}
	if err := ValidateHeader(&h, parent, params, time.Unix(int64(ts)+60, 0)); err != nil {
		t.Fatalf("mined header invalid: %v", err)
	}
	n, err := tree.Insert(h)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRetargetHardensOnFastBlocks(t *testing.T) {
	params := retargetParams()
	tree := NewTree(params.GenesisHeader, 0)
	cur := tree.Root()
	ts := params.GenesisHeader.Timestamp
	// Blocks arriving every 1s against a 10s target: at the boundary the
	// target must shrink (difficulty up).
	for i := 0; i < 4; i++ {
		ts += 1
		cur = mineChild(t, tree, cur, params, ts)
	}
	oldTarget := btc.CompactToBig(params.GenesisHeader.Bits)
	newTarget := btc.CompactToBig(cur.Header.Bits)
	if newTarget.Cmp(oldTarget) >= 0 {
		t.Fatalf("target did not shrink: %x -> %x", oldTarget, newTarget)
	}
	// Work per block must have increased correspondingly.
	if cur.Work.Cmp(tree.Root().Work) <= 0 {
		t.Fatal("per-block work did not increase")
	}
}

func TestRetargetEasesOnSlowBlocksAndClampsAtLimit(t *testing.T) {
	params := retargetParams()
	tree := NewTree(params.GenesisHeader, 0)
	cur := tree.Root()
	ts := params.GenesisHeader.Timestamp
	// Genesis already sits at the pow limit; slow blocks cannot ease
	// beyond it, so bits must stay at the limit.
	for i := 0; i < 4; i++ {
		ts += 1000
		cur = mineChild(t, tree, cur, params, ts)
	}
	if cur.Header.Bits != params.PowLimitBits {
		t.Fatalf("eased past the pow limit: 0x%08x", cur.Header.Bits)
	}
}

func TestRetargetClampFactor(t *testing.T) {
	// Extremely fast blocks: the adjustment is clamped to 4x per window.
	params := retargetParams()
	tree := NewTree(params.GenesisHeader, 0)
	cur := tree.Root()
	ts := params.GenesisHeader.Timestamp
	for i := 0; i < 4; i++ {
		ts += 1 // 30x faster than target
		cur = mineChild(t, tree, cur, params, ts)
	}
	oldTarget := btc.CompactToBig(params.GenesisHeader.Bits)
	newTarget := btc.CompactToBig(cur.Header.Bits)
	// Clamp: difficulty rises at most ~4x per window (integer division of
	// the clamped timespan makes it marginally more than 4, e.g. 30/4 = 7
	// seconds → factor 30/7; bound with old/5).
	fifth := oldTarget.Div(oldTarget, bigInt5())
	if newTarget.Cmp(fifth) < 0 {
		t.Fatalf("adjustment exceeded the clamp: %x < %x", newTarget, fifth)
	}
}

func TestWrongRetargetBitsRejected(t *testing.T) {
	params := retargetParams()
	tree := NewTree(params.GenesisHeader, 0)
	cur := tree.Root()
	ts := params.GenesisHeader.Timestamp
	for i := 0; i < 3; i++ {
		ts += 1
		cur = mineChild(t, tree, cur, params, ts)
	}
	// Block 4 must retarget; presenting the old bits is invalid.
	h := btc.BlockHeader{
		Version:   1,
		PrevBlock: cur.Hash,
		Timestamp: ts + 1,
		Bits:      cur.Header.Bits, // stale: boundary demands retarget
	}
	if err := ValidateHeader(&h, cur, params, time.Unix(int64(ts)+60, 0)); err == nil {
		t.Fatal("stale bits accepted at a retarget boundary")
	}
}

func TestNoRetargetOnRegtest(t *testing.T) {
	params := btc.RegtestParams() // window 0: never retargets
	tree := NewTree(params.GenesisHeader, 0)
	cur := tree.Root()
	ts := params.GenesisHeader.Timestamp
	for i := 0; i < 8; i++ {
		ts += 1
		cur = mineChild(t, tree, cur, params, ts)
		if cur.Header.Bits != params.PowLimitBits {
			t.Fatal("regtest retargeted")
		}
	}
}

func bigInt5() *big.Int { return big.NewInt(5) }
