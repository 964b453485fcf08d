package chain

import (
	"math/big"
	"math/rand"
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
	extend(t, tree, tree.Root(), 4, 500)

	// Root depth-by-work = 5 * per-block work (uniform difficulty).
	want := new(big.Int).Mul(work, big.NewInt(5))
	if got := tree.DepthByWork(tree.Root()); got.Cmp(want) != 0 {
		t.Fatalf("root d_w = %v, want %v", got, want)
	}

	// With uniform difficulty, work stability relative to the genesis block's
	// own work equals confirmation stability: 4 for the first child.
	child := tree.AtHeight(1)[0]
	if !tree.IsWorkStable(child, 4, work) || tree.IsWorkStable(child, 5, work) {
		t.Fatal("IsWorkStable threshold wrong: want stable at δ=4, not at δ=5")
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
	if !tree.IsWorkStable(a, 2, work) || tree.IsWorkStable(a, 3, work) {
		t.Fatal("IsWorkStable threshold wrong: want stable at δ=2, not at δ=3")
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
	anc := tree.CurrentChain()
	if len(anc) != 4 || anc[0] != tree.Root() || anc[3] != tip {
		t.Fatal("root-to-tip path wrong")
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
		// IsCountStable answers true for every δ ≤ 0, while a block whose
		// competitor is deeper is not work-stable at δ = 0; the two agree
		// from δ = 1 on, and IsWorkStable reads StabilityByCount throughout.
		for _, n := range nodes {
			count := tree.StabilityByCount(n)
			for delta := int64(-2); delta <= 21; delta++ {
				work := tree.IsWorkStable(n, delta, perBlock)
				if work != (count >= delta) || delta > 0 && work != tree.IsCountStable(n, delta) {
					return false
				}
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

// refDepthByCount is d_c(b) by its definition: recurse over b's subtree.
func refDepthByCount(n *Node) int64 {
	best := int64(0)
	for _, c := range n.children {
		best = max(best, refDepthByCount(c))
	}
	return best + 1
}

// refDepthByWork is d_w(b) by its definition: recurse over b's subtree.
func refDepthByWork(n *Node) *big.Int {
	best := new(big.Int)
	for _, c := range n.children {
		if d := refDepthByWork(c); d.Cmp(best) > 0 {
			best = d
		}
	}
	return best.Add(best, n.Work)
}

// refTip scans every leaf for the most cumulative work, ties to the lower
// hash.
func refTip(t *Tree) *Node {
	var best *Node
	for _, n := range t.nodes {
		if len(n.children) != 0 {
			continue
		}
		if best == nil || n.CumulativeWork.Cmp(best.CumulativeWork) > 0 ||
			(n.CumulativeWork.Cmp(best.CumulativeWork) == 0 && n.Hash.Less(best.Hash)) {
			best = n
		}
	}
	return best
}

// refStabilityByCount is Definition II.1 under d_c over the recursive depths.
func refStabilityByCount(t *Tree, n *Node) int64 {
	own := refDepthByCount(n)
	stability := own
	for _, o := range t.AtHeight(n.Height) {
		if o != n {
			stability = min(stability, own-refDepthByCount(o))
		}
	}
	return stability
}

// refWorkStability is Definition II.1 under d_w as an exact ratio against
// the reference work, min(d_w(n), gaps to same-height competitors) / w(ref),
// reading 0 without a positive reference; n is δ-stable when it is ≥ δ.
func refWorkStability(t *Tree, n *Node, refWork *big.Int) *big.Rat {
	if refWork.Sign() <= 0 {
		return new(big.Rat)
	}
	own := refDepthByWork(n)
	minVal := new(big.Int).Set(own)
	for _, o := range t.AtHeight(n.Height) {
		if o == n {
			continue
		}
		if gap := new(big.Int).Sub(own, refDepthByWork(o)); gap.Cmp(minVal) < 0 {
			minVal = gap
		}
	}
	return new(big.Rat).SetFrac(minVal, refWork)
}

// FuzzTreeAggregates holds the per-node aggregates Insert maintains to the
// recursive definitions. Each byte pair of the input is one step: insert a
// header under a live node (regtest bits, a harder target whose work is
// 256 times regtest's, or bits 0, which carry no work), or now and then
// re-root at one of the root's children. After every step, every live node
// must answer d_c, d_w, StabilityByCount and IsWorkStable for δ ∈ [-3, 8]
// as the recursion does, and Tip, MaxHeight and CurrentChain must match a
// scan of the whole tree.
func FuzzTreeAggregates(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2})                    // a chain: the walk must reach the root
	f.Add([]byte{2, 0, 2, 1, 0, 0, 1, 1})              // zero-work headers tie their parents
	f.Add([]byte{0, 0, 0, 0, 1, 1, 15, 0, 0, 2, 1, 3}) // a fork of mixed work, then a re-root
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		seed := make([]byte, 2*(1+rng.Intn(40)))
		rng.Read(seed)
		f.Add(seed)
	}
	regtest := btc.RegtestParams().GenesisHeader.Bits
	bitsOf := [3]uint32{regtest, regtest - 0x01000000, 0}
	f.Fuzz(func(t *testing.T, data []byte) {
		tree := NewTree(btc.RegtestParams().GenesisHeader, 0)
		live := []*Node{tree.Root()}
		for i := 0; i+1 < len(data) && i < 128; i += 2 {
			op, pick := data[i], int(data[i+1])
			if kids := tree.Root().Children(); op%16 == 15 && len(kids) > 0 {
				if err := tree.Reroot(kids[pick%len(kids)]); err != nil {
					t.Fatal(err)
				}
				kept := live[:0]
				for _, n := range live {
					if tree.Get(n.Hash) == n {
						kept = append(kept, n)
					}
				}
				live = kept
			} else {
				parent := live[pick%len(live)]
				n, err := tree.Insert(testHeader(parent.Hash, uint32(i), bitsOf[op%3]))
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, n)
			}
			checkAggregates(t, tree, live)
		}
	})
}

func checkAggregates(t *testing.T, tree *Tree, live []*Node) {
	t.Helper()
	if len(live) != tree.Len() {
		t.Fatalf("%d live nodes, tree holds %d", len(live), tree.Len())
	}
	tip, maxH := refTip(tree), int64(0)
	for _, n := range live {
		maxH = max(maxH, n.Height)
		if got, want := tree.DepthByCount(n), refDepthByCount(n); got != want {
			t.Fatalf("height %d: d_c %d, want %d", n.Height, got, want)
		}
		if got, want := tree.DepthByWork(n), refDepthByWork(n); got.Cmp(want) != 0 {
			t.Fatalf("height %d: d_w %v, want %v", n.Height, got, want)
		}
		if got, want := tree.StabilityByCount(n), refStabilityByCount(tree, n); got != want {
			t.Fatalf("height %d: stability %d, want %d", n.Height, got, want)
		}
		ref := tree.Root().Work
		stability := refWorkStability(tree, n, ref)
		for delta := int64(-3); delta <= 8; delta++ {
			want := stability.Cmp(new(big.Rat).SetInt64(delta)) >= 0
			if got := tree.IsWorkStable(n, delta, ref); got != want {
				t.Fatalf("height %d δ=%d: work-stable %v, want %v", n.Height, delta, got, want)
			}
		}
	}
	if got := tree.Tip(); got != tip {
		t.Fatalf("tip at height %d, want height %d", got.Height, tip.Height)
	}
	if got := tree.MaxHeight(); got != maxH {
		t.Fatalf("max height %d, want %d", got, maxH)
	}
	cur := tree.CurrentChain()
	if cur[0] != tree.Root() || cur[len(cur)-1] != tip {
		t.Fatal("current chain does not run from the root to the tip")
	}
	for i := 1; i < len(cur); i++ {
		if cur[i].Parent() != cur[i-1] {
			t.Fatal("current chain not parent-linked")
		}
	}
}
