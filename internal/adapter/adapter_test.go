package adapter

import (
	"math/rand"
	"testing"
	"time"

	"icbtc/internal/btc"
	"icbtc/internal/btcnode"
	"icbtc/internal/secp256k1"
	"icbtc/internal/simnet"
)

// harness builds a Bitcoin network of nodeCount honest nodes plus one
// adapter wired to the directory.
type harness struct {
	sched  *simnet.Scheduler
	net    *simnet.Network
	params *btc.Params
	sim    *btcnode.SimNetwork
	ad     *Adapter
	miner  *btcnode.Miner
}

func newHarness(t *testing.T, seed int64, nodeCount int) *harness {
	t.Helper()
	sched := simnet.NewScheduler(seed)
	net := simnet.NewNetwork(sched)
	params := btc.RegtestParams()
	sim := btcnode.BuildHonestNetwork(net, params, nodeCount)
	key, err := secp256k1.GeneratePrivateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigForNetwork(btc.Regtest)
	cfg.Connections = 3
	// Regtest production thresholds are t_l = t_u = 1 (pre-configured IPs);
	// the tests exercise discovery, so raise them.
	cfg.AddrLowWater, cfg.AddrHighWater = 5, 50
	ad := New("adapter/0", net, params, sim.Directory, cfg)
	return &harness{
		sched:  sched,
		net:    net,
		params: params,
		sim:    sim,
		ad:     ad,
		miner:  btcnode.NewMinerWithKey(sim.Nodes[0], key),
	}
}

func (h *harness) run(d time.Duration) { h.sched.RunFor(d) }

func TestDiscoveryAndConnections(t *testing.T) {
	h := newHarness(t, 1, 6)
	h.ad.Start()
	h.run(5 * time.Second)
	peers := h.ad.ConnectedPeers()
	if len(peers) != 3 {
		t.Fatalf("connected %d peers, want 3", len(peers))
	}
	if h.ad.AddressBookSize() == 0 {
		t.Fatal("no addresses collected")
	}
	// All peers must be distinct real nodes.
	seen := map[simnet.NodeID]bool{}
	for _, p := range peers {
		if seen[p] {
			t.Fatal("duplicate connection")
		}
		seen[p] = true
	}
}

func TestHeaderSyncFromGenesis(t *testing.T) {
	h := newHarness(t, 2, 5)
	if _, err := h.miner.MineChain(10, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.sim.SyncAll(500_000); err != nil {
		t.Fatal(err)
	}
	h.ad.Start()
	h.run(time.Minute)
	if got := h.ad.Tree().MaxHeight(); got != 10 {
		t.Fatalf("adapter synced to height %d, want 10", got)
	}
	accepted, rejected := h.ad.HeaderStats()
	if accepted != 10 {
		t.Fatalf("accepted %d headers", accepted)
	}
	if rejected != 0 {
		t.Fatalf("rejected %d valid headers", rejected)
	}
}

func TestAdapterTracksForks(t *testing.T) {
	// The adapter must store any valid header, including competing forks
	// ("The Bitcoin adapter does not perform any fork resolution").
	h := newHarness(t, 3, 4)
	if _, err := h.miner.MineChain(3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.sim.SyncAll(500_000); err != nil {
		t.Fatal(err)
	}
	// Build a competing branch from height 1 on a detached node.
	lone := btcnode.NewNode("btc/lone", h.net, h.params)
	blk1, _ := h.sim.Nodes[0].GetBlock(h.sim.Nodes[0].Tree().AtHeight(1)[0].Hash)
	if _, err := lone.AcceptBlock(blk1); err != nil {
		t.Fatal(err)
	}
	key, _ := secp256k1.GeneratePrivateKey(rand.New(rand.NewSource(99)))
	loneMiner := btcnode.NewMinerWithKey(lone, key)
	if _, err := loneMiner.MineChain(2, 0); err != nil {
		t.Fatal(err)
	}
	// Connect the lone node and gossip its branch to the honest network.
	btcnode.Connect(lone, h.sim.Nodes[0])
	lone.SetAddressBook([]string{string(h.sim.Nodes[0].ID)})
	var forkHeaders []btc.BlockHeader
	for _, n := range lone.Tree().CurrentChain()[2:] { // skip genesis + shared block 1
		forkHeaders = append(forkHeaders, n.Header)
	}
	h.net.Send(lone.ID, h.sim.Nodes[0].ID, btcnode.MsgHeaders{Headers: forkHeaders})
	h.run(time.Minute)

	h.ad.Start()
	h.run(2 * time.Minute)

	// Heights 2 and 3 should have two headers each on the adapter (the
	// honest chain's and the lone fork's) — the honest nodes also track
	// both branches and serve fork headers.
	if n := len(h.ad.Tree().AtHeight(2)); n != 2 {
		t.Fatalf("height 2 has %d headers, want 2", n)
	}
}

func TestRejectsInvalidHeaders(t *testing.T) {
	h := newHarness(t, 4, 3)
	h.ad.Start()
	h.run(2 * time.Second)

	genesis := h.params.GenesisHeader
	// Bad PoW: grind a header that misses its target by construction is
	// hard with regtest bits, so use wrong difficulty bits instead, plus a
	// bad-timestamp header.
	badBits := btc.BlockHeader{
		Version:   1,
		PrevBlock: genesis.BlockHash(),
		Timestamp: genesis.Timestamp + 10,
		Bits:      0x1b000001, // not the expected bits
	}
	badTime := btc.BlockHeader{
		Version:   1,
		PrevBlock: genesis.BlockHash(),
		Timestamp: genesis.Timestamp, // not after MTP
		Bits:      genesis.Bits,
	}
	orphan := btc.BlockHeader{
		Version:   1,
		PrevBlock: btc.DoubleSHA256([]byte("nowhere")),
		Timestamp: genesis.Timestamp + 10,
		Bits:      genesis.Bits,
	}
	h.net.Send(h.sim.Nodes[0].ID, h.ad.ID, btcnode.MsgHeaders{
		Headers: []btc.BlockHeader{badBits, badTime, orphan},
	})
	h.run(2 * time.Second)
	if h.ad.Tree().Len() != 1 {
		t.Fatalf("tree has %d headers, want 1 (genesis only)", h.ad.Tree().Len())
	}
	_, rejected := h.ad.HeaderStats()
	if rejected != 3 {
		t.Fatalf("rejected %d, want 3", rejected)
	}
}

func TestAlgorithm1SingleBlockNearTip(t *testing.T) {
	h := newHarness(t, 5, 4)
	if _, err := h.miner.MineChain(5, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.sim.SyncAll(500_000); err != nil {
		t.Fatal(err)
	}
	h.ad.Start()
	h.run(time.Minute)

	// Anchor at genesis; no blocks on hand; multiBlockSyncHeight=0 means
	// single-block responses.
	req := Request{Anchor: h.params.GenesisHeader, AnchorHeight: 0}
	resp := h.ad.HandleRequest(req)
	// First call: blocks not yet fetched → empty B, headers in N, and async
	// getdata fired.
	if len(resp.Blocks) != 0 {
		t.Fatalf("blocks before fetch: %d", len(resp.Blocks))
	}
	if len(resp.Next) != 5 {
		t.Fatalf("next headers %d, want 5", len(resp.Next))
	}
	h.run(time.Minute) // let block fetches complete

	resp = h.ad.HandleRequest(req)
	if len(resp.Blocks) != 1 {
		t.Fatalf("near-tip response carried %d blocks, want 1", len(resp.Blocks))
	}
	// The returned block must be the anchor's direct child.
	if resp.Blocks[0].Header.PrevBlock != h.params.GenesisHeader.BlockHash() {
		t.Fatal("returned block does not extend the anchor")
	}
	// Remaining headers are upcoming.
	if len(resp.Next) != 4 {
		t.Fatalf("next %d, want 4", len(resp.Next))
	}
}

func TestAlgorithm1MultiBlockDuringInitialSync(t *testing.T) {
	h := newHarness(t, 6, 4)
	h.ad.cfg.multiBlockSyncHeight = 1000 // anchor far below: fast sync mode
	if _, err := h.miner.MineChain(6, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.sim.SyncAll(500_000); err != nil {
		t.Fatal(err)
	}
	h.ad.Start()
	h.run(time.Minute)

	req := Request{Anchor: h.params.GenesisHeader, AnchorHeight: 0}
	h.ad.HandleRequest(req) // trigger fetches
	h.run(time.Minute)
	resp := h.ad.HandleRequest(req)
	if len(resp.Blocks) != 6 {
		t.Fatalf("multi-block sync returned %d blocks, want 6", len(resp.Blocks))
	}
	// Blocks must be in an order where each extends A ∪ B.
	have := map[btc.Hash]bool{h.params.GenesisHeader.BlockHash(): true}
	for i, bw := range resp.Blocks {
		if !have[bw.Header.PrevBlock] {
			t.Fatalf("block %d does not extend known state", i)
		}
		have[bw.Header.BlockHash()] = true
	}
}

func TestAlgorithm1RespectsHaveSet(t *testing.T) {
	h := newHarness(t, 7, 4)
	h.ad.cfg.multiBlockSyncHeight = 1000
	if _, err := h.miner.MineChain(4, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.sim.SyncAll(500_000); err != nil {
		t.Fatal(err)
	}
	h.ad.Start()
	h.run(time.Minute)

	req := Request{Anchor: h.params.GenesisHeader, AnchorHeight: 0}
	h.ad.HandleRequest(req)
	h.run(time.Minute)

	// The canister already has blocks 1 and 2.
	chainNodes := h.sim.Nodes[0].Tree().CurrentChain()
	req.Have = []btc.Hash{chainNodes[1].Hash, chainNodes[2].Hash}
	resp := h.ad.HandleRequest(req)
	if len(resp.Blocks) != 2 {
		t.Fatalf("returned %d blocks, want 2 (heights 3,4)", len(resp.Blocks))
	}
	for _, bw := range resp.Blocks {
		if bw.Header.BlockHash() == chainNodes[1].Hash || bw.Header.BlockHash() == chainNodes[2].Hash {
			t.Fatal("returned a block the canister already has")
		}
	}
	// Nothing upcoming: everything is either had or returned.
	if len(resp.Next) != 0 {
		t.Fatalf("next %d, want 0", len(resp.Next))
	}
}

func TestAlgorithm1MaxHeadersCap(t *testing.T) {
	h := newHarness(t, 8, 4)
	if _, err := h.miner.MineChain(maxHeaders+10, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.sim.SyncAll(2_000_000); err != nil {
		t.Fatal(err)
	}
	h.ad.Start()
	h.run(2 * time.Minute)
	if h.ad.Tree().MaxHeight() != maxHeaders+10 {
		t.Fatalf("adapter height %d", h.ad.Tree().MaxHeight())
	}
	resp := h.ad.HandleRequest(Request{Anchor: h.params.GenesisHeader, AnchorHeight: 0})
	if len(resp.Next) != maxHeaders {
		t.Fatalf("N size %d, want capped at %d", len(resp.Next), maxHeaders)
	}
}

// TestAlgorithm1SizeSoftLimit: MAX_SIZE is a soft bound. Three blocks of
// just over half the budget each: the second crosses it and is still
// returned, the third is not.
func TestAlgorithm1SizeSoftLimit(t *testing.T) {
	cfg := ConfigForNetwork(btc.Regtest)
	cfg.multiBlockSyncHeight = 1000
	ad, _, _ := bareAdapter(9, cfg)
	ad.Start()
	forge := btcnode.NewForge(ad.params)
	parent := ad.params.GenesisHeader.BlockHash()
	for i := 0; i < 3; i++ {
		b, err := forge.Mine(parent, make([]byte, maxResponseBytes/2+1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ad.tree.Insert(b.Header); err != nil {
			t.Fatal(err)
		}
		parent = b.BlockHash()
		ad.blocks[parent] = b
	}
	resp := ad.HandleRequest(Request{Anchor: ad.params.GenesisHeader, AnchorHeight: 0})
	if len(resp.Blocks) != 2 {
		t.Fatalf("soft limit returned %d blocks, want 2", len(resp.Blocks))
	}
}

func TestTransactionCacheAndAdvertisement(t *testing.T) {
	h := newHarness(t, 10, 4)
	// Fund an address so we can build a valid transaction.
	key, _ := secp256k1.GeneratePrivateKey(rand.New(rand.NewSource(77)))
	miner := btcnode.NewMinerWithKey(h.sim.Nodes[0], key)
	if _, err := miner.MineChain(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.sim.SyncAll(500_000); err != nil {
		t.Fatal(err)
	}
	h.ad.Start()
	h.run(30 * time.Second)

	addr := btc.AddressFromPubKey(key.PubKey().SerializeCompressed(), h.params.Network)
	utxos := h.sim.Nodes[0].UTXOView().UTXOsForAddress(addr.String())
	tx := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: utxos[0].OutPoint, Sequence: 0xffffffff}},
		Outputs: []btc.TxOut{{Value: utxos[0].Value - 1000, PkScript: utxos[0].PkScript}},
	}
	if err := btc.SignInput(tx, 0, utxos[0].PkScript, key); err != nil {
		t.Fatal(err)
	}

	h.ad.HandleRequest(Request{
		Anchor:       h.params.GenesisHeader,
		AnchorHeight: 0,
		Txs:          [][]byte{tx.Bytes()},
	})
	if h.ad.TxCacheSize() != 1 {
		t.Fatalf("cache size %d", h.ad.TxCacheSize())
	}
	h.run(30 * time.Second)
	// The transaction must have reached at least one Bitcoin node mempool
	// (and from there gossip onward).
	found := false
	for _, n := range h.sim.Nodes {
		if n.MempoolHas(tx.TxID()) {
			found = true
		}
	}
	if !found {
		t.Fatal("transaction did not reach the Bitcoin network")
	}

	// Cache expiry: after 10 minutes the entry is gone.
	h.run(11 * time.Minute)
	if h.ad.TxCacheSize() != 0 {
		t.Fatalf("cache size %d after expiry", h.ad.TxCacheSize())
	}
}

func TestMalformedTxSkipped(t *testing.T) {
	h := newHarness(t, 11, 3)
	h.ad.Start()
	h.run(2 * time.Second)
	h.ad.HandleRequest(Request{
		Anchor: h.params.GenesisHeader,
		Txs:    [][]byte{{0xde, 0xad}},
	})
	if h.ad.TxCacheSize() != 0 {
		t.Fatal("malformed tx cached")
	}
}

func TestFillConnectionsSelfEntryTerminates(t *testing.T) {
	// Regression: a book whose every entry resolves to the adapter itself
	// (gossip can teach a node its own address under a foreign label) or to
	// an already-connected peer used to spin fillConnections forever — self
	// entries were never removed and never counted as connections, so the
	// len(addressBook) <= len(connected) bail-out could not fire.
	sched := simnet.NewScheduler(1)
	net := simnet.NewNetwork(sched)
	dir := btcnode.NewSeedDirectory()
	cfg := ConfigForNetwork(btc.Regtest)
	cfg.Connections = 2
	ad := New("adapter/self", net, btc.RegtestParams(), dir, cfg)

	// One entry resolving to the adapter itself, one to a peer that is
	// already connected: nothing eligible remains, yet the book is non-empty.
	dir.AddNode("mirror-of-self", ad.ID)
	dir.AddNode("already-peered", "btc/0")
	for _, addr := range []string{"mirror-of-self", "already-peered"} {
		ad.addrSet[addr] = true
		ad.addressBook = append(ad.addressBook, addr)
	}
	ad.connected["btc/0"] = true

	done := make(chan struct{})
	go func() {
		ad.fillConnections()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("fillConnections did not terminate with only self/connected entries in the book")
	}
	if got := len(ad.ConnectedPeers()); got != 1 {
		t.Fatalf("connections changed: %d, want 1", got)
	}
	// The self entry is purged; the connected peer's address stays usable.
	if ad.AddressBookSize() != 1 {
		t.Fatalf("book size %d, want 1 (self entry dropped, peer entry kept)", ad.AddressBookSize())
	}
}

func TestDropConnectionReplenishes(t *testing.T) {
	h := newHarness(t, 12, 6)
	h.ad.Start()
	h.run(5 * time.Second)
	peers := h.ad.ConnectedPeers()
	if len(peers) != 3 {
		t.Fatalf("peers %d", len(peers))
	}
	h.ad.DropConnection(peers[0])
	h.run(5 * time.Second)
	if got := len(h.ad.ConnectedPeers()); got != 3 {
		t.Fatalf("after drop: %d peers, want 3", got)
	}
}

func TestUnknownAnchorReturnsEmpty(t *testing.T) {
	h := newHarness(t, 13, 3)
	h.ad.Start()
	h.run(2 * time.Second)
	foreign := btc.BlockHeader{Version: 9, Bits: h.params.PowLimitBits}
	resp := h.ad.HandleRequest(Request{Anchor: foreign, AnchorHeight: 3})
	if len(resp.Blocks) != 0 || len(resp.Next) != 0 {
		t.Fatal("response for unknown anchor not empty")
	}
}
