package btcnode

import (
	"bytes"
	"math/rand"
	"testing"

	"icbtc/internal/btc"
	"icbtc/internal/secp256k1"
	"icbtc/internal/simnet"
	"icbtc/internal/statecodec"
	"icbtc/internal/utxo"
)

func newTestNet(t *testing.T, seed int64) (*simnet.Scheduler, *simnet.Network, *btc.Params) {
	t.Helper()
	s := simnet.NewScheduler(seed)
	n := simnet.NewNetwork(s)
	return s, n, btc.RegtestParams()
}

func testKey(t *testing.T, seed int64) *secp256k1.PrivateKey {
	t.Helper()
	key, err := secp256k1.GeneratePrivateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// encodeView returns a UTXO set's snapshot bytes.
func encodeView(s *utxo.Set) []byte {
	e := statecodec.NewEncoder("btcnode-test\n", 1, 0)
	s.EncodeTo(e)
	return e.Finish()
}

// checkViewIsFold holds a node's UTXO view to a fresh fold of its active
// chain: every block folds clean, and the two sets encode byte-identically.
func checkViewIsFold(t *testing.T, n *Node) {
	t.Helper()
	fresh := utxo.New(n.Params().Network)
	for _, node := range pathTo(n.Tree().Root(), n.BestTip()) {
		blk, _ := n.GetBlock(node.Hash)
		if st := fresh.ApplyBlockIngest(blk, node.Height); st.Errors > 0 {
			t.Fatalf("block %s of the active chain folds with %d errors", node.Hash, st.Errors)
		}
	}
	if !bytes.Equal(encodeView(n.UTXOView()), encodeView(fresh)) {
		t.Fatalf("%s: the view differs from a fresh fold of its active chain", n.ID)
	}
}

func TestMineAndAccept(t *testing.T) {
	_, net, params := newTestNet(t, 1)
	node := NewNode("btc/0", net, params)
	miner := NewMinerWithKey(node, testKey(t, 1))

	blocks, err := miner.MineChain(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 5 || node.Height() != 5 {
		t.Fatalf("height %d", node.Height())
	}
	// Every block must satisfy its PoW target.
	for _, b := range blocks {
		if !btc.HashMeetsTarget(b.BlockHash(), b.Header.Bits) {
			t.Fatal("mined block fails its own target")
		}
	}
	// Coinbase rewards accumulate in the UTXO view.
	if node.UTXOView().Len() != 5 {
		t.Fatalf("utxo count %d", node.UTXOView().Len())
	}
}

func TestDuplicateBlockIgnored(t *testing.T) {
	_, net, params := newTestNet(t, 2)
	node := NewNode("btc/0", net, params)
	miner := NewMinerWithKey(node, testKey(t, 2))
	blk, err := miner.Mine(0)
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := node.AcceptBlock(blk)
	if err != nil || accepted {
		t.Fatalf("duplicate: accepted=%v err=%v", accepted, err)
	}
}

func TestOrphanBlockRejected(t *testing.T) {
	_, net, params := newTestNet(t, 3)
	node := NewNode("btc/0", net, params)
	other := NewNode("btc/1", net, params)
	m := NewMinerWithKey(other, testKey(t, 3))
	if _, err := m.MineChain(2, 0); err != nil {
		t.Fatal(err)
	}
	tip, _ := other.GetBlock(other.BestTip().Hash)
	if _, err := node.AcceptBlock(tip); err == nil {
		t.Fatal("orphan accepted")
	}
}

func TestGossipPropagatesBlocks(t *testing.T) {
	s, net, params := newTestNet(t, 4)
	a := NewNode("btc/0", net, params)
	b := NewNode("btc/1", net, params)
	c := NewNode("btc/2", net, params)
	Connect(a, b)
	Connect(b, c)

	miner := NewMinerWithKey(a, testKey(t, 4))
	if _, err := miner.MineChain(3, 0); err != nil {
		t.Fatal(err)
	}
	s.Drain(10_000)
	if b.Height() != 3 || c.Height() != 3 {
		t.Fatalf("heights b=%d c=%d", b.Height(), c.Height())
	}
	if b.BestTip().Hash != a.BestTip().Hash || c.BestTip().Hash != a.BestTip().Hash {
		t.Fatal("tips diverged")
	}
}

func TestTransactionPropagationAndMining(t *testing.T) {
	s, net, params := newTestNet(t, 5)
	a := NewNode("btc/0", net, params)
	b := NewNode("btc/1", net, params)
	Connect(a, b)

	key := testKey(t, 5)
	miner := NewMinerWithKey(a, key)
	if _, err := miner.MineChain(1, 0); err != nil {
		t.Fatal(err)
	}
	s.Drain(10_000)

	// Spend the coinbase to a new address.
	addr := btc.AddressFromPubKey(key.PubKey().SerializeCompressed(), params.Network)
	utxos := a.UTXOView().UTXOsForAddress(addr.String())
	if len(utxos) != 1 {
		t.Fatalf("utxos %d", len(utxos))
	}
	destKey := testKey(t, 6)
	dest := btc.AddressFromPubKey(destKey.PubKey().SerializeCompressed(), params.Network)
	tx := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: utxos[0].OutPoint, Sequence: 0xffffffff}},
		Outputs: []btc.TxOut{{Value: utxos[0].Value - 1000, PkScript: btc.PayToAddrScript(dest)}},
	}
	if err := btc.SignInput(tx, 0, utxos[0].PkScript, key); err != nil {
		t.Fatal(err)
	}
	if !a.AcceptTx(tx) {
		t.Fatal("valid tx rejected")
	}
	s.Drain(10_000)
	if !b.MempoolHas(tx.TxID()) {
		t.Fatal("tx did not propagate")
	}

	// Mine it; both nodes should see the spend.
	if _, err := miner.Mine(0); err != nil {
		t.Fatal(err)
	}
	s.Drain(10_000)
	if a.MempoolSize() != 0 || b.MempoolSize() != 0 {
		t.Fatal("mempool not cleared after mining")
	}
	if got := b.UTXOView().Balance(dest.String()); got != utxos[0].Value-1000 {
		t.Fatalf("dest balance %d", got)
	}
}

func TestRejectsInvalidTx(t *testing.T) {
	_, net, params := newTestNet(t, 7)
	node := NewNode("btc/0", net, params)
	key := testKey(t, 7)
	miner := NewMinerWithKey(node, key)
	if _, err := miner.Mine(0); err != nil {
		t.Fatal(err)
	}
	addr := btc.AddressFromPubKey(key.PubKey().SerializeCompressed(), params.Network)
	utxos := node.UTXOView().UTXOsForAddress(addr.String())

	// Unsigned spend must be rejected.
	unsigned := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: utxos[0].OutPoint}},
		Outputs: []btc.TxOut{{Value: 1, PkScript: utxos[0].PkScript}},
	}
	if node.AcceptTx(unsigned) {
		t.Fatal("unsigned tx accepted")
	}
	// Overspending must be rejected even with a valid signature.
	over := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: utxos[0].OutPoint}},
		Outputs: []btc.TxOut{{Value: utxos[0].Value + 1, PkScript: utxos[0].PkScript}},
	}
	if err := btc.SignInput(over, 0, utxos[0].PkScript, key); err != nil {
		t.Fatal(err)
	}
	if node.AcceptTx(over) {
		t.Fatal("overspend accepted")
	}
	// Spending a nonexistent output must be rejected.
	ghost := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.DoubleSHA256([]byte("ghost"))}}},
		Outputs: []btc.TxOut{{Value: 1, PkScript: utxos[0].PkScript}},
	}
	if node.AcceptTx(ghost) {
		t.Fatal("ghost spend accepted")
	}
	// Coinbase via AcceptTx must be rejected.
	cb := &btc.Transaction{
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff}}},
		Outputs: []btc.TxOut{{Value: 1, PkScript: utxos[0].PkScript}},
	}
	if node.AcceptTx(cb) {
		t.Fatal("coinbase accepted into mempool")
	}
}

func TestReorgSwitchesToHeavierChain(t *testing.T) {
	s, net, params := newTestNet(t, 8)
	a := NewNode("btc/0", net, params)
	b := NewNode("btc/1", net, params)
	// NOT connected yet: they build competing chains.
	minerA := NewMinerWithKey(a, testKey(t, 8))
	minerB := NewMinerWithKey(b, testKey(t, 9))

	if _, err := minerA.MineChain(2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := minerB.MineChain(4, 0); err != nil {
		t.Fatal(err)
	}
	if a.Height() != 2 || b.Height() != 4 {
		t.Fatalf("pre-reorg heights %d/%d", a.Height(), b.Height())
	}

	// Connect and let B's longer chain win on A.
	Connect(a, b)
	// Trigger sync by announcing B's tip.
	net.Send(b.ID, a.ID, MsgInvBlock{Hash: b.BestTip().Hash})
	// A requests the block, gets it, but it's an orphan... it needs headers
	// first. Send headers explicitly (the adapter protocol does this; nodes
	// use inv+getdata cascades).
	var headers []btc.BlockHeader
	for _, n := range b.Tree().CurrentChain()[1:] {
		headers = append(headers, n.Header)
	}
	net.Send(b.ID, a.ID, MsgHeaders{Headers: headers})
	s.Drain(100_000)

	if a.BestTip().Hash != b.BestTip().Hash {
		t.Fatalf("a did not reorg: height %d vs %d", a.Height(), b.Height())
	}
	if a.Reorgs() == 0 {
		t.Fatal("no reorg recorded")
	}
	// A's coinbase UTXOs from the abandoned branch must be gone.
	if a.UTXOView().Len() != 4 {
		t.Fatalf("utxo count %d after reorg, want 4", a.UTXOView().Len())
	}
	checkViewIsFold(t, a)
}

func TestReorgReturnsTxsToMempool(t *testing.T) {
	s, net, params := newTestNet(t, 10)
	a := NewNode("btc/0", net, params)
	key := testKey(t, 10)
	minerA := NewMinerWithKey(a, key)
	if _, err := minerA.Mine(0); err != nil {
		t.Fatal(err)
	}
	addr := btc.AddressFromPubKey(key.PubKey().SerializeCompressed(), params.Network)
	utxos := a.UTXOView().UTXOsForAddress(addr.String())
	tx := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: utxos[0].OutPoint}},
		Outputs: []btc.TxOut{{Value: utxos[0].Value - 500, PkScript: utxos[0].PkScript}},
	}
	if err := btc.SignInput(tx, 0, utxos[0].PkScript, key); err != nil {
		t.Fatal(err)
	}
	if !a.AcceptTx(tx) {
		t.Fatal("tx rejected")
	}
	// Mine it into block 2 on branch X.
	if _, err := minerA.Mine(0); err != nil {
		t.Fatal(err)
	}
	if a.MempoolSize() != 0 {
		t.Fatal("tx not mined")
	}

	// Build a heavier competing branch from block 1 on another node sharing
	// the same block-1 (replay A's first block into B).
	b := NewNode("btc/1", net, params)
	blk1, _ := a.GetBlock(a.Tree().AtHeight(1)[0].Hash)
	if _, err := b.AcceptBlock(blk1); err != nil {
		t.Fatal(err)
	}
	minerB := NewMinerWithKey(b, testKey(t, 11))
	if _, err := minerB.MineChain(2, 0); err != nil {
		t.Fatal(err)
	}

	// Feed B's branch to A: headers then blocks.
	var headers []btc.BlockHeader
	for _, n := range b.Tree().CurrentChain()[2:] { // skip genesis and shared block 1
		headers = append(headers, n.Header)
	}
	Connect(a, b)
	net.Send(b.ID, a.ID, MsgHeaders{Headers: headers})
	s.Drain(100_000)

	if a.BestTip().Hash != b.BestTip().Hash {
		t.Fatalf("no reorg: %d vs %d", a.Height(), b.Height())
	}
	// The displaced spend must be back in the mempool.
	if !a.MempoolHas(tx.TxID()) {
		t.Fatal("displaced tx not restored to mempool")
	}
	checkViewIsFold(t, a)
	// Mined again on the new branch, it extends the view that was refolded.
	if _, err := minerA.Mine(0); err != nil {
		t.Fatal(err)
	}
	if a.MempoolSize() != 0 {
		t.Fatal("the returned spend was not mined again")
	}
	checkViewIsFold(t, a)
}

// TestFailedReorgKeepsActiveView: a heavier branch whose last block spends an
// output nobody created is rejected, and the node stays on its chain — the
// tip, the view (the miner's coins, not the branch's) and the mempool as they
// were, with no half-switched view left behind.
func TestFailedReorgKeepsActiveView(t *testing.T) {
	_, net, params := newTestNet(t, 23)
	a := NewNode("btc/0", net, params)
	key := testKey(t, 23)
	if _, err := NewMinerWithKey(a, key).MineChain(3, 0); err != nil {
		t.Fatal(err)
	}
	addr := btc.AddressFromPubKey(key.PubKey().SerializeCompressed(), params.Network)
	coins := a.UTXOView().UTXOsForAddress(addr.String())
	pending := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: coins[0].OutPoint, Sequence: 0xffffffff}},
		Outputs: []btc.TxOut{{Value: coins[0].Value - 1000, PkScript: btc.PayToPubKeyHashScript([20]byte{0xA0})}},
	}
	if err := btc.SignInput(pending, 0, coins[0].PkScript, key); err != nil {
		t.Fatal(err)
	}
	if !a.AcceptTx(pending) {
		t.Fatal("pending spend rejected")
	}
	tip, view := a.BestTip(), encodeView(a.UTXOView())

	// A four-block branch from genesis: three clean blocks, then one spending
	// an output nobody created.
	forge := NewForge(params)
	payout := btc.PayToPubKeyHashScript([20]byte{0xF0})
	parent := params.GenesisHeader.BlockHash()
	var branch []*btc.Block
	for i := 0; i < 4; i++ {
		var txs []*btc.Transaction
		if i == 3 {
			txs = append(txs, &btc.Transaction{Version: 2,
				Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.DoubleSHA256([]byte("nobody"))}}},
				Outputs: []btc.TxOut{{Value: 1, PkScript: payout}}})
		}
		blk, err := forge.Mine(parent, payout, txs...)
		if err != nil {
			t.Fatal(err)
		}
		branch, parent = append(branch, blk), blk.BlockHash()
	}
	// The clean prefix arrives without a switch (it is lighter than the
	// active chain), then the bad block makes the branch the heavier one.
	for _, blk := range branch[:3] {
		if _, err := a.tree.Insert(blk.Header); err != nil {
			t.Fatal(err)
		}
		a.blocks[blk.BlockHash()] = blk
	}
	if _, err := a.AcceptBlock(branch[3]); err == nil {
		t.Fatal("a branch spending an output nobody created was adopted")
	}
	if a.BestTip() != tip {
		t.Fatalf("tip moved to height %d", a.Height())
	}
	if got := a.UTXOView().UTXOsForAddress(addr.String()); len(got) != 3 {
		t.Fatalf("the view holds %d of the miner's 3 coins", len(got))
	}
	if !bytes.Equal(encodeView(a.UTXOView()), view) {
		t.Fatal("the failed reorg changed the view")
	}
	if a.MempoolSize() != 1 || !a.MempoolHas(pending.TxID()) {
		t.Fatal("the failed reorg changed the mempool")
	}
}

// TestFailedExtensionKeepsActiveView: a block on the tip whose second
// transaction spends a miner coin and whose third spends an output nobody
// created is rejected after its fold has changed the view part-way, and the
// view is refolded to the chain it was on.
func TestFailedExtensionKeepsActiveView(t *testing.T) {
	_, net, params := newTestNet(t, 24)
	a := NewNode("btc/0", net, params)
	key := testKey(t, 24)
	miner := NewMinerWithKey(a, key)
	if _, err := miner.MineChain(2, 0); err != nil {
		t.Fatal(err)
	}
	addr := btc.AddressFromPubKey(key.PubKey().SerializeCompressed(), params.Network)
	coin := a.UTXOView().UTXOsForAddress(addr.String())[0]
	tip, view := a.BestTip(), encodeView(a.UTXOView())

	built, err := miner.BuildBlockOn(tip, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := &btc.Block{Header: built.Header, Transactions: append(built.Transactions,
		&btc.Transaction{Version: 2,
			Inputs:  []btc.TxIn{{PreviousOutPoint: coin.OutPoint}},
			Outputs: []btc.TxOut{{Value: coin.Value, PkScript: btc.PayToPubKeyHashScript([20]byte{0xB0})}}},
		&btc.Transaction{Version: 2,
			Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.DoubleSHA256([]byte("nobody"))}}},
			Outputs: []btc.TxOut{{Value: 1, PkScript: btc.PayToPubKeyHashScript([20]byte{0xB1})}}})}
	bad.Header.MerkleRoot = bad.MerkleRoot()
	if err := btc.MineHeader(&bad.Header); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AcceptBlock(bad); err == nil {
		t.Fatal("a block spending an output nobody created was connected")
	}
	if a.BestTip() != tip {
		t.Fatalf("tip moved to height %d", a.Height())
	}
	if !bytes.Equal(encodeView(a.UTXOView()), view) {
		t.Fatal("the failed extension left the view changed")
	}
	checkViewIsFold(t, a)
}

// TestConflictingSpendsDoNotWedgeTheMiner: the mempool holds at most one
// spend of an outpoint, and none of an outpoint the active chain has spent.
// Without either rule a block template carries a double spend, its fold
// counts a missing input, the node rejects the miner's own block, and every
// later Mine fails the same way ("own block rejected ... missing inputs").
func TestConflictingSpendsDoNotWedgeTheMiner(t *testing.T) {
	_, net, params := newTestNet(t, 21)
	a := NewNode("btc/0", net, params)
	key := testKey(t, 21)
	minerA := NewMinerWithKey(a, key)
	blk1, err := minerA.Mine(0)
	if err != nil {
		t.Fatal(err)
	}
	addr := btc.AddressFromPubKey(key.PubKey().SerializeCompressed(), params.Network)
	coin := a.UTXOView().UTXOsForAddress(addr.String())[0]
	spendTo := func(tag byte) *btc.Transaction {
		tx := &btc.Transaction{
			Version: 2,
			Inputs:  []btc.TxIn{{PreviousOutPoint: coin.OutPoint, Sequence: 0xffffffff}},
			Outputs: []btc.TxOut{{Value: coin.Value - 1000, PkScript: btc.PayToPubKeyHashScript([20]byte{tag})}},
		}
		if err := btc.SignInput(tx, 0, coin.PkScript, key); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	first, second := spendTo(1), spendTo(2)

	// First seen wins.
	if !a.AcceptTx(first) {
		t.Fatal("first spend rejected")
	}
	if a.AcceptTx(second) || a.MempoolHas(second.TxID()) {
		t.Fatal("a second spend of the same outpoint entered the mempool")
	}
	blk2, err := minerA.Mine(0)
	if err != nil {
		t.Fatalf("mining over a conflicting pair: %v", err)
	}
	if len(blk2.Transactions) != 2 || blk2.Transactions[1].TxID() != first.TxID() {
		t.Fatalf("block holds %d transactions, want coinbase + the first spend", len(blk2.Transactions))
	}

	// A node that saw the other spend first drops it when the chain spends
	// the outpoint, and keeps mining.
	b := NewNode("btc/1", net, params)
	if _, err := b.AcceptBlock(blk1); err != nil {
		t.Fatal(err)
	}
	if !b.AcceptTx(second) {
		t.Fatal("second spend rejected by a node that never saw the first")
	}
	if _, err := b.AcceptBlock(blk2); err != nil {
		t.Fatal(err)
	}
	if b.MempoolSize() != 0 {
		t.Fatal("a spend of an outpoint the chain has spent stayed in the mempool")
	}
	if _, err := NewMinerWithKey(b, testKey(t, 22)).Mine(0); err != nil {
		t.Fatalf("mining after the conflict confirmed: %v", err)
	}
	if a.AcceptTx(second) {
		t.Fatal("spend of a confirmed-spent outpoint accepted")
	}
}

func TestBuildHonestNetworkConverges(t *testing.T) {
	s, net, params := newTestNet(t, 12)
	_ = s
	sn := BuildHonestNetwork(net, params, 8)
	if len(sn.Nodes) != 8 {
		t.Fatal("node count")
	}
	miner := NewMinerWithKey(sn.Nodes[0], testKey(t, 12))
	if _, err := miner.MineChain(6, 0); err != nil {
		t.Fatal(err)
	}
	h, err := sn.SyncAll(500_000)
	if err != nil {
		t.Fatal(err)
	}
	if h != 6 {
		t.Fatalf("converged height %d", h)
	}
}

func TestSeedDirectory(t *testing.T) {
	d := NewSeedDirectory()
	d.AddNode("addr1", "btc/1")
	d.AddNode("addr0", "btc/0")
	d.AddSeed("btc/0")
	if id, ok := d.Resolve("addr1"); !ok || id != "btc/1" {
		t.Fatal("resolve failed")
	}
	if _, ok := d.Resolve("nope"); ok {
		t.Fatal("phantom resolve")
	}
	addrs := d.AllAddrs()
	if len(addrs) != 2 || addrs[0] != "addr0" {
		t.Fatalf("addrs %v", addrs)
	}
	if len(d.Seeds()) != 1 {
		t.Fatal("seeds")
	}
}

func TestAdversaryPrivateForkAndServing(t *testing.T) {
	s, net, params := newTestNet(t, 13)
	sn := BuildHonestNetwork(net, params, 3)
	miner := NewMinerWithKey(sn.Nodes[0], testKey(t, 13))
	if _, err := miner.MineChain(3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sn.SyncAll(200_000); err != nil {
		t.Fatal(err)
	}

	sn.AddAdversaries(1)
	adv := sn.Adversaries[0]
	s.Drain(200_000) // let the adversary sync the honest chain
	// Sync adversary manually if gossip missed it.
	for _, n := range sn.Nodes[0].Tree().CurrentChain()[1:] {
		blk, _ := sn.Nodes[0].GetBlock(n.Hash)
		_, _ = adv.Node.AcceptBlock(blk)
	}
	if adv.Node.Height() != 3 {
		t.Fatalf("adversary height %d", adv.Node.Height())
	}

	// Mine a 2-block private fork from height 1.
	base := adv.Node.Tree().AtHeight(1)[0].Hash
	if err := adv.MinePrivateFork(base, 2, nil); err != nil {
		t.Fatal(err)
	}
	if len(adv.Fork()) != 2 {
		t.Fatal("fork length")
	}
	// Honest nodes must not have seen fork blocks (not relayed).
	forkTip := adv.Fork()[1].BlockHash()
	for _, n := range sn.Nodes {
		if n.Tree().Contains(forkTip) {
			t.Fatal("private fork leaked")
		}
	}

	// Fork-only serving: a getheaders must return only fork headers.
	adv.SetServeForkOnly(true)
	probe := &recorderEndpoint{}
	net.Register("probe", probe)
	net.Send("probe", adv.Node.ID, MsgGetHeaders{})
	s.Drain(10_000)
	if len(probe.headers) != 2 {
		t.Fatalf("fork-only served %d headers", len(probe.headers))
	}

	// Silent mode: no response at all.
	adv.SetSilent(true)
	probe.headers = nil
	net.Send("probe", adv.Node.ID, MsgGetHeaders{})
	s.Drain(10_000)
	if probe.headers != nil {
		t.Fatal("silent adversary answered")
	}
}

type recorderEndpoint struct {
	headers []btc.BlockHeader
}

func (r *recorderEndpoint) Receive(_ simnet.NodeID, msg any) {
	if m, ok := msg.(MsgHeaders); ok {
		r.headers = append(r.headers, m.Headers...)
	}
}

func TestAdversaryInjectedTransaction(t *testing.T) {
	_, net, params := newTestNet(t, 14)
	adv := NewAdversary("btcadv/0", net, params)
	// Inject a transaction spending a nonexistent output — valid-looking
	// but unbacked (the Lemma IV.2 "corrupting transaction").
	fake := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.DoubleSHA256([]byte("loot"))}}},
		Outputs: []btc.TxOut{{Value: 99, PkScript: btc.PayToPubKeyHashScript([20]byte{1})}},
	}
	genesis := adv.Node.Tree().Root().Hash
	if err := adv.MinePrivateFork(genesis, 3, []*btc.Transaction{fake}); err != nil {
		t.Fatal(err)
	}
	// The injected tx must be inside the first fork block with valid PoW
	// and a correct Merkle root.
	first := adv.Fork()[0]
	found := false
	for _, tx := range first.Transactions {
		if tx.TxID() == fake.TxID() {
			found = true
		}
	}
	if !found {
		t.Fatal("injected tx missing")
	}
	if first.MerkleRoot() != first.Header.MerkleRoot {
		t.Fatal("fork block merkle root stale")
	}
	if !btc.HashMeetsTarget(first.BlockHash(), first.Header.Bits) {
		t.Fatal("fork block fails PoW")
	}
}

func TestCoinbaseMaturityEnforced(t *testing.T) {
	_, net, _ := newTestNet(t, 60)
	params := btc.RegtestParams()
	params.CoinbaseMaturity = 5
	node := NewNode("btc/0", net, params)
	key := testKey(t, 60)
	miner := NewMinerWithKey(node, key)
	if _, err := miner.MineChain(2, 0); err != nil {
		t.Fatal(err)
	}
	addr := btc.AddressFromPubKey(key.PubKey().SerializeCompressed(), params.Network)
	utxos := node.UTXOView().UTXOsForAddress(addr.String())
	// The height-1 coinbase has 2 confirmations < 5: spending must fail.
	young := utxos[len(utxos)-1] // lowest height last (sorted desc)
	spend := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: young.OutPoint, Sequence: 0xffffffff}},
		Outputs: []btc.TxOut{{Value: young.Value - 1000, PkScript: young.PkScript}},
	}
	if err := btc.SignInput(spend, 0, young.PkScript, key); err != nil {
		t.Fatal(err)
	}
	if node.AcceptTx(spend) {
		t.Fatal("immature coinbase spend accepted")
	}
	// After enough blocks it matures.
	if _, err := miner.MineChain(4, 0); err != nil {
		t.Fatal(err)
	}
	if !node.AcceptTx(spend) {
		t.Fatal("mature coinbase spend rejected")
	}
}
