package chain

import (
	"math/big"
	"testing"
	"testing/quick"
	"time"

	"icbtc/internal/btc"
)

// testHeader builds a child header of prev with a distinguishing nonce. The
// regtest "bits" keep work values uniform so confirmation and work depths
// agree unless a test overrides bits.
func testHeader(prev btc.Hash, nonce uint32, bits uint32) btc.BlockHeader {
	return btc.BlockHeader{
		Version:    1,
		PrevBlock:  prev,
		MerkleRoot: btc.DoubleSHA256([]byte{byte(nonce), byte(nonce >> 8), byte(nonce >> 16), byte(nonce >> 24)}),
		Timestamp:  1_600_000_000 + nonce,
		Bits:       bits,
		Nonce:      nonce,
	}
}

func newTestTree(t *testing.T) (*Tree, *btc.Params) {
	t.Helper()
	params := btc.RegtestParams()
	return NewTree(params.GenesisHeader, 0), params
}

// extend inserts a linear chain of n headers on top of from and returns the
// new tip node.
func extend(t *testing.T, tree *Tree, from *Node, n int, nonceBase uint32) *Node {
	t.Helper()
	cur := from
	for i := 0; i < n; i++ {
		h := testHeader(cur.Hash, nonceBase+uint32(i), cur.Header.Bits)
		node, err := tree.Insert(h)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		cur = node
	}
	return cur
}

func TestInsertBasics(t *testing.T) {
	tree, _ := newTestTree(t)
	root := tree.Root()
	if root.Height != 0 || tree.MaxHeight() != 0 || tree.Len() != 1 {
		t.Fatal("fresh tree geometry wrong")
	}
	tip := extend(t, tree, root, 3, 100)
	if tip.Height != 3 || tree.MaxHeight() != 3 || tree.Len() != 4 {
		t.Fatalf("height=%d max=%d len=%d", tip.Height, tree.MaxHeight(), tree.Len())
	}
	if !tree.Contains(tip.Hash) || tree.Get(tip.Hash) != tip {
		t.Fatal("lookup failed")
	}
}

func TestInsertRejectsOrphanAndDuplicate(t *testing.T) {
	tree, _ := newTestTree(t)
	var unknown btc.Hash
	unknown[0] = 0xFF
	if _, err := tree.Insert(testHeader(unknown, 1, tree.Root().Header.Bits)); err == nil {
		t.Fatal("orphan accepted")
	}
	h := testHeader(tree.Root().Hash, 2, tree.Root().Header.Bits)
	if _, err := tree.Insert(h); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Insert(h); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestDepthByCountLinearChain(t *testing.T) {
	tree, _ := newTestTree(t)
	tip := extend(t, tree, tree.Root(), 5, 10)
	if d := tree.DepthByCount(tree.Root()); d != 6 {
		t.Fatalf("root depth %d, want 6", d)
	}
	if d := tree.DepthByCount(tip); d != 1 {
		t.Fatalf("tip depth %d, want 1", d)
	}
}

// TestFigure3 reproduces the block tree of Figure 3 in the paper: a 7-block
// main chain (heights h..h+6) with two competing forks, annotated with each
// block's confirmation-based stability.
//
//	main chain:                       7 6 2 2 1 1 1
//	fork A from the block at h+1:       -2 -2 -2     (heights h+2..h+4)
//	fork B from the block at h+3:             -1 -1  (heights h+4..h+5)
//
// The fork rows match the figure exactly (-2 -2 -2 and -1 -1). The paper's
// PDF prints the main row as "7 6 2 1 1 1 2"; that exact digit sequence is
// not realizable for a 7-block chain under Definition II.1 (a tip always has
// d_c = 1, so its stability can never be 2), so the topology above is the
// unique consistent reconstruction. It demonstrates both observations the
// caption makes: stability stagnates while depth grows (the run of 1s), and
// fork blocks have negative stability.
func TestFigure3(t *testing.T) {
	tree, _ := newTestTree(t)
	bits := tree.Root().Header.Bits

	// Main chain: m0..m6 at heights 1..7 (genesis at 0 plays "height h-1";
	// the figure's absolute heights are irrelevant, only the tree shape).
	main := make([]*Node, 7)
	prev := tree.Root()
	for i := range main {
		n, err := tree.Insert(testHeader(prev.Hash, uint32(1000+i), bits))
		if err != nil {
			t.Fatal(err)
		}
		main[i], prev = n, n
	}
	// Fork A: three blocks branching off main[1] (heights of main[2..4]).
	forkA := make([]*Node, 3)
	prev = main[1]
	for i := range forkA {
		n, err := tree.Insert(testHeader(prev.Hash, uint32(2000+i), bits))
		if err != nil {
			t.Fatal(err)
		}
		forkA[i], prev = n, n
	}
	// Fork B: two blocks branching off main[3] (heights of main[4..5]).
	forkB := make([]*Node, 2)
	prev = main[3]
	for i := range forkB {
		n, err := tree.Insert(testHeader(prev.Hash, uint32(3000+i), bits))
		if err != nil {
			t.Fatal(err)
		}
		forkB[i], prev = n, n
	}

	wantMain := []int64{7, 6, 2, 2, 1, 1, 1}
	for i, n := range main {
		if got := tree.StabilityByCount(n); got != wantMain[i] {
			t.Errorf("main[%d]: stability %d, want %d", i, got, wantMain[i])
		}
	}
	for i, n := range forkA {
		if got := tree.StabilityByCount(n); got != -2 {
			t.Errorf("forkA[%d]: stability %d, want -2", i, got)
		}
	}
	for i, n := range forkB {
		if got := tree.StabilityByCount(n); got != -1 {
			t.Errorf("forkB[%d]: stability %d, want -1", i, got)
		}
	}
}

func TestStabilityUniqueAtHeight(t *testing.T) {
	// Definition II.1 implies at most one δ-stable block per height for δ>0.
	tree, _ := newTestTree(t)
	bits := tree.Root().Header.Bits
	a, err := tree.Insert(testHeader(tree.Root().Hash, 1, bits))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tree.Insert(testHeader(tree.Root().Hash, 2, bits))
	if err != nil {
		t.Fatal(err)
	}
	extend(t, tree, a, 3, 50)
	extend(t, tree, b, 2, 60)
	for delta := int64(1); delta <= 5; delta++ {
		stableCount := 0
		for _, n := range tree.AtHeight(1) {
			if tree.IsCountStable(n, delta) {
				stableCount++
			}
		}
		if stableCount > 1 {
			t.Fatalf("δ=%d: %d stable blocks at height 1", delta, stableCount)
		}
	}
}

func TestQuickStabilityUniqueness(t *testing.T) {
	// Property: for random trees, at most one block per height is δ-stable
	// for any δ ≥ 1, and δ-stable implies δ'-stable for δ' ≤ δ.
	f := func(seed int64) bool {
		tree := NewTree(btc.RegtestParams().GenesisHeader, 0)
		bits := tree.Root().Header.Bits
		nodes := []*Node{tree.Root()}
		s := seed
		next := func(mod int) int {
			s = s*6364136223846793005 + 1442695040888963407
			v := int(uint64(s) >> 33)
			return v % mod
		}
		for i := 0; i < 25; i++ {
			parent := nodes[next(len(nodes))]
			n, err := tree.Insert(testHeader(parent.Hash, uint32(10_000+i), bits))
			if err != nil {
				return false
			}
			nodes = append(nodes, n)
		}
		for h := int64(0); h <= tree.MaxHeight(); h++ {
			for delta := int64(1); delta <= 4; delta++ {
				count := 0
				for _, n := range tree.AtHeight(h) {
					if tree.IsCountStable(n, delta) {
						count++
						// monotonicity
						for d2 := int64(1); d2 < delta; d2++ {
							if !tree.IsCountStable(n, d2) {
								return false
							}
						}
					}
				}
				if count > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDepthByWorkAndWorkStability(t *testing.T) {
	tree, _ := newTestTree(t)
	bits := tree.Root().Header.Bits
	work := btc.WorkForBits(bits)
	tip := extend(t, tree, tree.Root(), 4, 500)
	_ = tip

	// Root depth-by-work = 5 * per-block work (uniform difficulty).
	want := new(big.Int).Mul(work, big.NewInt(5))
	if got := tree.DepthByWork(tree.Root()); got.Cmp(want) != 0 {
		t.Fatalf("root d_w = %v, want %v", got, want)
	}

	// With uniform difficulty, work stability relative to the genesis block's
	// own work equals confirmation stability.
	child := tree.AtHeight(1)[0]
	rel := tree.WorkStabilityRelativeTo(child, work)
	if rel.Cmp(new(big.Rat).SetInt64(4)) != 0 {
		t.Fatalf("work stability %v, want 4", rel)
	}
	if !tree.IsWorkStable(child, 4, work) || tree.IsWorkStable(child, 5, work) {
		t.Fatal("IsWorkStable threshold wrong")
	}
}

func TestWorkStabilityWithCompetingFork(t *testing.T) {
	tree, _ := newTestTree(t)
	bits := tree.Root().Header.Bits
	work := btc.WorkForBits(bits)
	a, _ := tree.Insert(testHeader(tree.Root().Hash, 1, bits))
	b, _ := tree.Insert(testHeader(tree.Root().Hash, 2, bits))
	extend(t, tree, a, 5, 100) // a's branch: depth 6
	extend(t, tree, b, 3, 200) // b's branch: depth 4
	// Gap = 2 blocks of work -> stability 2 relative to per-block work.
	rel := tree.WorkStabilityRelativeTo(a, work)
	if rel.Cmp(new(big.Rat).SetInt64(2)) != 0 {
		t.Fatalf("work stability %v, want 2", rel)
	}
}

func TestTipAndCurrentChain(t *testing.T) {
	tree, _ := newTestTree(t)
	bits := tree.Root().Header.Bits
	a, _ := tree.Insert(testHeader(tree.Root().Hash, 1, bits))
	b, _ := tree.Insert(testHeader(tree.Root().Hash, 2, bits))
	tipA := extend(t, tree, a, 4, 100)
	extend(t, tree, b, 2, 200)

	if tip := tree.Tip(); tip != tipA {
		t.Fatalf("tip = %v, want %v", tip.Hash, tipA.Hash)
	}
	cur := tree.CurrentChain()
	if len(cur) != 6 { // genesis + a + 4
		t.Fatalf("chain length %d, want 6", len(cur))
	}
	if cur[0] != tree.Root() || cur[len(cur)-1] != tipA {
		t.Fatal("chain endpoints wrong")
	}
	for i := 1; i < len(cur); i++ {
		if cur[i].Parent() != cur[i-1] {
			t.Fatal("chain not parent-linked")
		}
	}
}

func TestTipDeterministicTieBreak(t *testing.T) {
	tree, _ := newTestTree(t)
	bits := tree.Root().Header.Bits
	tree.Insert(testHeader(tree.Root().Hash, 1, bits))
	tree.Insert(testHeader(tree.Root().Hash, 2, bits))
	t1 := tree.Tip()
	t2 := tree.Tip()
	if t1 != t2 {
		t.Fatal("tie break not deterministic")
	}
}

func TestBFSOrderDeterministic(t *testing.T) {
	tree, _ := newTestTree(t)
	bits := tree.Root().Header.Bits
	a, _ := tree.Insert(testHeader(tree.Root().Hash, 1, bits))
	tree.Insert(testHeader(tree.Root().Hash, 2, bits))
	extend(t, tree, a, 2, 100)

	collect := func() []btc.Hash {
		var order []btc.Hash
		tree.BFSFrom(tree.Root(), func(n *Node) bool {
			order = append(order, n.Hash)
			return true
		})
		return order
	}
	o1, o2 := collect(), collect()
	if len(o1) != tree.Len() {
		t.Fatalf("BFS visited %d of %d", len(o1), tree.Len())
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("BFS order not deterministic")
		}
	}
	// Heights must be non-decreasing in BFS order.
	lastH := int64(-1)
	for _, h := range o1 {
		n := tree.Get(h)
		if n.Height < lastH {
			t.Fatal("BFS order violates level order")
		}
		lastH = n.Height
	}
}

func TestBFSEarlyStop(t *testing.T) {
	tree, _ := newTestTree(t)
	extend(t, tree, tree.Root(), 5, 100)
	count := 0
	tree.BFSFrom(tree.Root(), func(n *Node) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("visited %d, want 3", count)
	}
}

func TestReroot(t *testing.T) {
	tree, _ := newTestTree(t)
	bits := tree.Root().Header.Bits
	a, _ := tree.Insert(testHeader(tree.Root().Hash, 1, bits))
	b, _ := tree.Insert(testHeader(tree.Root().Hash, 2, bits))
	tipA := extend(t, tree, a, 3, 100)
	extend(t, tree, b, 2, 200)

	if err := tree.Reroot(a); err != nil {
		t.Fatal(err)
	}
	if tree.Root() != a || a.Parent() != nil {
		t.Fatal("root not updated")
	}
	if tree.Contains(b.Hash) {
		t.Fatal("competing branch survived reroot")
	}
	if !tree.Contains(tipA.Hash) {
		t.Fatal("descendant lost in reroot")
	}
	if tree.Len() != 5 { // a + 3 descendants... a + 3 = 4? a plus chain of 3 = 4
		// a itself + 3 extension blocks = 4 nodes.
		if tree.Len() != 4 {
			t.Fatalf("len %d after reroot", tree.Len())
		}
	}
	// Rerooting at a node from the discarded branch must fail.
	if err := tree.Reroot(b); err == nil {
		t.Fatal("reroot at removed node accepted")
	}
}

func TestAncestorsAndTips(t *testing.T) {
	tree, _ := newTestTree(t)
	tip := extend(t, tree, tree.Root(), 3, 100)
	anc := tree.Ancestors(tip)
	if len(anc) != 4 || anc[0] != tree.Root() || anc[3] != tip {
		t.Fatal("ancestors wrong")
	}
	tips := tree.Tips()
	if len(tips) != 1 || tips[0] != tip {
		t.Fatal("tips wrong")
	}
}

func TestValidateHeader(t *testing.T) {
	params := btc.RegtestParams()
	tree := NewTree(params.GenesisHeader, 0)
	now := time.Unix(1_700_000_000, 0)

	good := testHeader(tree.Root().Hash, 1, params.PowLimitBits)
	good.Timestamp = 1_699_999_999
	if err := btc.MineHeader(&good); err != nil {
		t.Fatal(err)
	}
	if err := ValidateHeader(&good, tree.Root(), params, now); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}

	badBits := good
	badBits.Bits = 0x1b000001
	if err := ValidateHeader(&badBits, tree.Root(), params, now); err == nil {
		t.Fatal("wrong bits accepted")
	}

	badTime := good
	badTime.Timestamp = tree.Root().Header.Timestamp // not after MTP
	if err := ValidateHeader(&badTime, tree.Root(), params, now); err == nil {
		t.Fatal("stale timestamp accepted")
	}

	future := good
	future.Timestamp = uint32(now.Unix()) + 3*3600
	if err := ValidateHeader(&future, tree.Root(), params, now); err == nil {
		t.Fatal("future timestamp accepted")
	}

	if err := ValidateHeader(nil, tree.Root(), params, now); err == nil {
		t.Fatal("nil header accepted")
	}
	if err := ValidateHeader(&good, nil, params, now); err == nil {
		t.Fatal("nil parent accepted")
	}
}

func TestValidateBlock(t *testing.T) {
	coinbase := &btc.Transaction{
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff}}},
		Outputs: []btc.TxOut{{Value: 50 * btc.SatoshiPerBitcoin}},
	}
	blk := &btc.Block{Transactions: []*btc.Transaction{coinbase}}
	blk.Header.MerkleRoot = blk.MerkleRoot()
	if err := ValidateBlock(blk); err != nil {
		t.Fatalf("valid block rejected: %v", err)
	}

	if err := ValidateBlock(nil); err == nil {
		t.Fatal("nil block accepted")
	}
	if err := ValidateBlock(&btc.Block{}); err == nil {
		t.Fatal("empty block accepted")
	}

	badRoot := &btc.Block{Transactions: []*btc.Transaction{coinbase}}
	if err := ValidateBlock(badRoot); err == nil {
		t.Fatal("merkle mismatch accepted")
	}

	noCB := &btc.Block{Transactions: []*btc.Transaction{{
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.DoubleSHA256([]byte("x"))}}},
		Outputs: []btc.TxOut{{Value: 1}},
	}}}
	noCB.Header.MerkleRoot = noCB.MerkleRoot()
	if err := ValidateBlock(noCB); err == nil {
		t.Fatal("block without coinbase accepted")
	}

	twoCB := &btc.Block{Transactions: []*btc.Transaction{coinbase, {
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff}}},
		Outputs: []btc.TxOut{{Value: 2}},
	}}}
	twoCB.Header.MerkleRoot = twoCB.MerkleRoot()
	if err := ValidateBlock(twoCB); err == nil {
		t.Fatal("duplicate coinbase accepted")
	}
}

// Property: with uniform difficulty, work-based stability measured relative
// to the per-block work coincides with confirmation-based stability on
// every node of a random tree (d_w = d_c · w when all blocks carry equal
// work, so Definition II.1 instantiates identically).
func TestQuickWorkAndCountStabilityAgree(t *testing.T) {
	f := func(seed int64) bool {
		tree := NewTree(btc.RegtestParams().GenesisHeader, 0)
		bits := tree.Root().Header.Bits
		perBlock := btc.WorkForBits(bits)
		nodes := []*Node{tree.Root()}
		s := seed
		next := func(mod int) int {
			s = s*2862933555777941757 + 3037000493
			return int(uint64(s)>>33) % mod
		}
		for i := 0; i < 20; i++ {
			parent := nodes[next(len(nodes))]
			n, err := tree.Insert(testHeader(parent.Hash, uint32(40_000+i), bits))
			if err != nil {
				return false
			}
			nodes = append(nodes, n)
		}
		for _, n := range nodes {
			count := tree.StabilityByCount(n)
			rel := tree.WorkStabilityRelativeTo(n, perBlock)
			if rel.Cmp(new(big.Rat).SetInt64(count)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the current chain is always a root-to-leaf path whose
// cumulative work is maximal among all leaves.
func TestQuickCurrentChainMaximal(t *testing.T) {
	f := func(seed int64) bool {
		tree := NewTree(btc.RegtestParams().GenesisHeader, 0)
		bits := tree.Root().Header.Bits
		nodes := []*Node{tree.Root()}
		s := seed
		next := func(mod int) int {
			s = s*6364136223846793005 + 1442695040888963407
			return int(uint64(s)>>33) % mod
		}
		for i := 0; i < 24; i++ {
			parent := nodes[next(len(nodes))]
			n, err := tree.Insert(testHeader(parent.Hash, uint32(50_000+i), bits))
			if err != nil {
				return false
			}
			nodes = append(nodes, n)
		}
		cur := tree.CurrentChain()
		if cur[0] != tree.Root() {
			return false
		}
		tip := cur[len(cur)-1]
		if len(tip.Children()) != 0 {
			return false
		}
		for _, leaf := range tree.Tips() {
			if leaf.CumulativeWork.Cmp(tip.CumulativeWork) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
