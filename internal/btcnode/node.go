package btcnode

import (
	"fmt"
	"sort"

	"icbtc/internal/btc"
	"icbtc/internal/chain"
	"icbtc/internal/simnet"
	"icbtc/internal/utxo"
)

// Node is a simulated Bitcoin full node. It maintains a header tree rooted
// at genesis, a block store, a UTXO view of the current best chain (with
// undo data for reorgs), and a mempool, and it gossips blocks and
// transactions with its peers.
type Node struct {
	ID     simnet.NodeID
	net    *simnet.Network
	params *btc.Params
	tree   *chain.Tree
	blocks map[btc.Hash]*btc.Block
	// mempool holds the transactions waiting to be mined; spends maps every
	// outpoint one of them spends to its txid. No two of them spend the same
	// outpoint (first seen wins) and none spends an outpoint the active chain
	// has spent, so a block template built from the mempool always connects.
	mempool map[btc.Hash]*btc.Transaction
	spends  map[btc.OutPoint]btc.Hash

	// utxoView tracks the UTXO set along the active chain; undoStack holds
	// per-block undo data aligned with activeChain[1:].
	utxoView    *utxo.Set
	activeTip   *chain.Node
	undoByBlock map[btc.Hash]*utxo.BlockUndo

	// orphans holds blocks whose parent is not yet known, keyed by the
	// missing parent hash; they are retried when the parent arrives.
	orphans map[btc.Hash][]*btc.Block

	// peers this node gossips with (its outbound+inbound connections).
	peers map[simnet.NodeID]bool
	// knownAddrs is the node's address book, served in MsgAddr replies.
	knownAddrs []string

	// ValidateScripts controls whether transaction input scripts are
	// verified when accepting mempool transactions. Honest nodes verify;
	// tests can disable to inject invalid-but-mined transactions.
	ValidateScripts bool

	// Stats
	blocksAccepted int
	reorgs         int
}

// NewNode creates a node with the network's genesis chain.
func NewNode(id simnet.NodeID, net *simnet.Network, params *btc.Params) *Node {
	n := &Node{
		ID:              id,
		net:             net,
		params:          params,
		tree:            chain.NewTree(params.GenesisHeader, 0),
		blocks:          make(map[btc.Hash]*btc.Block),
		mempool:         make(map[btc.Hash]*btc.Transaction),
		spends:          make(map[btc.OutPoint]btc.Hash),
		utxoView:        utxo.New(params.Network),
		undoByBlock:     make(map[btc.Hash]*utxo.BlockUndo),
		orphans:         make(map[btc.Hash][]*btc.Block),
		peers:           make(map[simnet.NodeID]bool),
		ValidateScripts: true,
	}
	n.activeTip = n.tree.Root()
	// Store a synthetic genesis block (empty) so getdata for genesis works.
	n.blocks[n.tree.Root().Hash] = &btc.Block{Header: params.GenesisHeader}
	net.Register(id, n)
	return n
}

// Params returns the node's network parameters.
func (n *Node) Params() *btc.Params { return n.params }

// Tree exposes the node's header tree (read-only use by tests and miners).
func (n *Node) Tree() *chain.Tree { return n.tree }

// BestTip returns the tip of the node's active chain.
func (n *Node) BestTip() *chain.Node { return n.activeTip }

// Height returns the active chain height.
func (n *Node) Height() int64 { return n.activeTip.Height }

// UTXOView returns the node's UTXO set along the active chain.
func (n *Node) UTXOView() *utxo.Set { return n.utxoView }

// MempoolSize returns the number of transactions waiting to be mined.
func (n *Node) MempoolSize() int { return len(n.mempool) }

// MempoolHas reports whether the node's mempool holds txid.
func (n *Node) MempoolHas(txid btc.Hash) bool { return n.mempool[txid] != nil }

// Reorgs returns how many chain reorganizations the node performed.
func (n *Node) Reorgs() int { return n.reorgs }

// AddPeer connects this node to a peer (one direction; callers typically
// call Connect on both).
func (n *Node) AddPeer(peer simnet.NodeID) {
	if peer != n.ID {
		n.peers[peer] = true
	}
}

// Connect links two nodes symmetrically.
func Connect(a, b *Node) {
	a.AddPeer(b.ID)
	b.AddPeer(a.ID)
}

// SetAddressBook installs the addresses this node serves to MsgGetAddr.
func (n *Node) SetAddressBook(addrs []string) {
	n.knownAddrs = append([]string(nil), addrs...)
}

// GetBlock returns a stored block.
func (n *Node) GetBlock(h btc.Hash) (*btc.Block, bool) {
	b, ok := n.blocks[h]
	return b, ok
}

// Receive implements simnet.Endpoint, dispatching on message type.
func (n *Node) Receive(from simnet.NodeID, msg any) {
	switch m := msg.(type) {
	case MsgGetAddr:
		n.net.Send(n.ID, from, MsgAddr{Addrs: append([]string(nil), n.knownAddrs...)})
	case MsgGetHeaders:
		n.handleGetHeaders(from, m)
	case MsgGetData:
		n.handleGetData(from, m)
	case MsgHeaders:
		n.handleHeaders(from, m)
	case MsgBlock:
		n.handleBlock(from, m)
	case MsgInvBlock:
		if !n.tree.Contains(m.Hash) {
			n.net.Send(n.ID, from, MsgGetData{BlockHashes: []btc.Hash{m.Hash}})
		}
	case MsgInvTx:
		if n.mempool[m.TxID] == nil {
			n.net.Send(n.ID, from, MsgGetTx{TxID: m.TxID})
		}
	case MsgGetTx:
		if tx := n.mempool[m.TxID]; tx != nil {
			n.net.Send(n.ID, from, MsgTx{Tx: tx})
		} else {
			n.net.Send(n.ID, from, MsgNotFound{Hashes: []btc.Hash{m.TxID}})
		}
	case MsgTx:
		n.AcceptTx(m.Tx)
	case MsgAddr, MsgNotFound:
		// Nodes do not act on these; adapters do.
	}
}

// handleGetHeaders serves headers from the best chain after the locator.
// As in Bitcoin, the starting point is the first locator hash that lies on
// the responder's CURRENT chain — a locator entry on a stale branch must
// not anchor the response, or a freshly reorged peer would be served
// orphans.
func (n *Node) handleGetHeaders(from simnet.NodeID, m MsgGetHeaders) {
	cur := n.tree.CurrentChain()
	onChain := make(map[btc.Hash]bool, len(cur))
	for _, node := range cur {
		onChain[node.Hash] = true
	}
	start := n.tree.Root()
	for _, h := range m.Locator {
		if node := n.tree.Get(h); node != nil && onChain[h] {
			start = node
			break
		}
	}
	// Serve headers along the current best chain strictly after start, plus
	// headers on other branches at those heights (SPV clients see forks).
	var out []btc.BlockHeader
	for _, node := range cur {
		if node.Height <= start.Height {
			continue
		}
		out = append(out, node.Header)
		if len(out) >= MaxHeadersPerMsg {
			break
		}
		if !m.Stop.IsZero() && node.Hash == m.Stop {
			break
		}
	}
	// Include fork headers above the locator point so peers can track forks.
	if len(out) < MaxHeadersPerMsg {
		for h := start.Height + 1; h <= n.tree.MaxHeight() && len(out) < MaxHeadersPerMsg; h++ {
			for _, node := range n.tree.AtHeight(h) {
				if !onChain[node.Hash] {
					out = append(out, node.Header)
				}
			}
		}
	}
	n.net.Send(n.ID, from, MsgHeaders{Headers: out})
}

// handleGetData serves requested blocks; unknown hashes get MsgNotFound.
func (n *Node) handleGetData(from simnet.NodeID, m MsgGetData) {
	var missing []btc.Hash
	for _, h := range m.BlockHashes {
		if b, ok := n.blocks[h]; ok {
			n.net.Send(n.ID, from, MsgBlock{Block: b})
		} else {
			missing = append(missing, h)
		}
	}
	if len(missing) > 0 {
		n.net.Send(n.ID, from, MsgNotFound{Hashes: missing})
	}
}

// handleHeaders records announced headers and requests unknown blocks.
func (n *Node) handleHeaders(from simnet.NodeID, m MsgHeaders) {
	var want []btc.Hash
	for i := range m.Headers {
		h := m.Headers[i]
		hash := h.BlockHash()
		if n.tree.Contains(hash) {
			continue
		}
		parent := n.tree.Get(h.PrevBlock)
		if parent == nil {
			continue // orphan; will be fetched on a later sync round
		}
		if err := chain.ValidateHeader(&h, parent, n.params, n.net.Scheduler().Now()); err != nil {
			continue
		}
		if _, err := n.tree.Insert(h); err != nil {
			continue
		}
		want = append(want, hash)
	}
	if len(want) > 0 {
		n.net.Send(n.ID, from, MsgGetData{BlockHashes: want})
	}
}

// maxOrphans bounds the orphan pool.
const maxOrphans = 256

// handleBlock validates and connects a received block, then relays it.
// Blocks whose parent is unknown are parked in the orphan pool and a
// header catch-up is requested from the sender.
func (n *Node) handleBlock(from simnet.NodeID, m MsgBlock) {
	if m.Block == nil {
		return
	}
	prev := m.Block.Header.PrevBlock
	if !n.tree.Contains(prev) {
		if n.orphanCount() < maxOrphans {
			n.orphans[prev] = append(n.orphans[prev], m.Block)
		}
		n.net.Send(n.ID, from, MsgGetHeaders{Locator: n.Locator()})
		return
	}
	if accepted, _ := n.AcceptBlock(m.Block); accepted {
		n.relayBlock(m.Block.BlockHash(), from)
		n.adoptOrphansOf(m.Block.BlockHash(), from)
	}
}

// adoptOrphansOf recursively connects orphans that were waiting for hash.
func (n *Node) adoptOrphansOf(hash btc.Hash, from simnet.NodeID) {
	waiting := n.orphans[hash]
	if len(waiting) == 0 {
		return
	}
	delete(n.orphans, hash)
	for _, blk := range waiting {
		if accepted, _ := n.AcceptBlock(blk); accepted {
			n.relayBlock(blk.BlockHash(), from)
			n.adoptOrphansOf(blk.BlockHash(), from)
		}
	}
}

func (n *Node) orphanCount() int {
	total := 0
	for _, v := range n.orphans {
		total += len(v)
	}
	return total
}

// Locator builds a block locator for getheaders: hashes along the active
// chain, dense near the tip then exponentially sparser, ending at genesis.
func (n *Node) Locator() []btc.Hash {
	var locator []btc.Hash
	step := int64(1)
	cur := n.activeTip
	for cur != nil {
		locator = append(locator, cur.Hash)
		if cur.Parent() == nil {
			break
		}
		if len(locator) >= 10 {
			step *= 2
		}
		for i := int64(0); i < step && cur.Parent() != nil; i++ {
			cur = cur.Parent()
		}
	}
	return locator
}

// peersSorted returns the peer set in sorted order. Relay loops must not
// iterate the map directly: every send consumes scheduler RNG (latency and
// loss draws), so map iteration order would leak real-process
// nondeterminism into the seeded simulation.
func (n *Node) peersSorted() []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(n.peers))
	for p := range n.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// relayBlock announces a block to all peers except skip.
func (n *Node) relayBlock(hash btc.Hash, skip simnet.NodeID) {
	for _, p := range n.peersSorted() {
		if p != skip {
			n.net.Send(n.ID, p, MsgInvBlock{Hash: hash})
		}
	}
}

// AcceptBlock validates a block and connects it to the node's chain state.
// It returns (accepted, error); a false/nil return means the block was a
// duplicate. Accepting a block may trigger a reorganization when the block
// extends a branch with more cumulative work than the active chain.
func (n *Node) AcceptBlock(block *btc.Block) (bool, error) {
	hash := block.BlockHash()
	if _, have := n.blocks[hash]; have {
		return false, nil
	}
	parent := n.tree.Get(block.Header.PrevBlock)
	if parent == nil {
		return false, fmt.Errorf("btcnode: orphan block %s", hash)
	}
	node := n.tree.Get(hash)
	if node == nil {
		if err := chain.ValidateHeader(&block.Header, parent, n.params, n.net.Scheduler().Now()); err != nil {
			return false, fmt.Errorf("btcnode: invalid header: %w", err)
		}
		var err error
		node, err = n.tree.Insert(block.Header)
		if err != nil {
			return false, fmt.Errorf("btcnode: inserting header: %w", err)
		}
	}
	if err := chain.ValidateBlock(block); err != nil {
		return false, fmt.Errorf("btcnode: invalid block: %w", err)
	}
	n.blocks[hash] = block
	n.blocksAccepted++

	// Adopt the branch with the most cumulative work among branches whose
	// blocks are all available.
	best := n.bestAvailableTip()
	if best != nil && best != n.activeTip {
		if err := n.reorganizeTo(best); err != nil {
			return false, fmt.Errorf("btcnode: reorg: %w", err)
		}
	}
	return true, nil
}

// bestAvailableTip finds the leaf with maximal cumulative work whose whole
// path from the root has blocks available.
func (n *Node) bestAvailableTip() *chain.Node {
	var best *chain.Node
	for _, tip := range n.tree.Tips() {
		if !n.branchAvailable(tip) {
			continue
		}
		if best == nil || tip.CumulativeWork.Cmp(best.CumulativeWork) > 0 {
			best = tip
		}
	}
	return best
}

func (n *Node) branchAvailable(tip *chain.Node) bool {
	for cur := tip; cur != nil; cur = cur.Parent() {
		if _, ok := n.blocks[cur.Hash]; !ok {
			return false
		}
	}
	return true
}

// reorganizeTo switches the active chain to the branch ending at newTip,
// unapplying blocks back to the fork point and applying the new branch.
func (n *Node) reorganizeTo(newTip *chain.Node) error {
	// Find the fork point: walk both branches to equal height, then in step.
	oldBranch := map[btc.Hash]bool{}
	for cur := n.activeTip; cur != nil; cur = cur.Parent() {
		oldBranch[cur.Hash] = true
	}
	forkPoint := newTip
	for !oldBranch[forkPoint.Hash] {
		forkPoint = forkPoint.Parent()
	}
	// Unapply old blocks above the fork point (tip-first).
	detached := 0
	for cur := n.activeTip; cur != forkPoint; cur = cur.Parent() {
		undo := n.undoByBlock[cur.Hash]
		if undo == nil {
			return fmt.Errorf("btcnode: missing undo data for %s", cur.Hash)
		}
		if err := n.utxoView.UnapplyBlock(undo); err != nil {
			return err
		}
		delete(n.undoByBlock, cur.Hash)
		// Return the block's non-coinbase transactions to the mempool.
		if blk := n.blocks[cur.Hash]; blk != nil {
			for _, tx := range blk.Transactions {
				if !tx.IsCoinbase() {
					n.mempoolAdd(tx)
				}
			}
		}
		detached++
	}
	// Apply new branch blocks (fork-point first).
	var toApply []*chain.Node
	for cur := newTip; cur != forkPoint; cur = cur.Parent() {
		toApply = append(toApply, cur)
	}
	for i := len(toApply) - 1; i >= 0; i-- {
		node := toApply[i]
		blk := n.blocks[node.Hash]
		if blk == nil {
			return fmt.Errorf("btcnode: missing block %s during reorg", node.Hash)
		}
		undo, _, err := n.utxoView.ApplyBlock(blk, node.Height)
		if err != nil {
			return fmt.Errorf("btcnode: connect %s: %w", node.Hash, err)
		}
		n.undoByBlock[node.Hash] = undo
		// The chain has now spent these outpoints: whatever in the mempool
		// spends one — the mined transaction itself or a conflicting spend
		// — can never be mined on this branch.
		for _, tx := range blk.Transactions {
			for i := range tx.Inputs {
				if spender, ok := n.spends[tx.Inputs[i].PreviousOutPoint]; ok {
					n.mempoolRemove(spender)
				}
			}
		}
	}
	if detached > 0 {
		n.reorgs++
	}
	n.activeTip = newTip
	return nil
}

// AcceptTx validates a transaction against the node's UTXO view and adds it
// to the mempool, relaying an inventory announcement to peers. Returns true
// if the transaction was newly accepted.
func (n *Node) AcceptTx(tx *btc.Transaction) bool {
	if tx == nil {
		return false
	}
	txid := tx.TxID()
	if n.mempool[txid] != nil {
		return false
	}
	if err := tx.CheckSanity(); err != nil {
		return false
	}
	if tx.IsCoinbase() {
		return false
	}
	// Inputs must exist, be mature if coinbases, and cover outputs; scripts
	// must verify when enabled.
	var inValue, outValue int64
	for i := range tx.Inputs {
		prev, ok := n.utxoView.Get(tx.Inputs[i].PreviousOutPoint)
		if !ok {
			return false
		}
		if _, taken := n.spends[tx.Inputs[i].PreviousOutPoint]; taken {
			return false
		}
		// Coinbase maturity: outputs minted at height h spend only after
		// CoinbaseMaturity confirmations. The view records creation height;
		// coinbase outputs are identifiable as vout of a coinbase txid,
		// which the node tracks via the block at that height.
		if n.isCoinbaseOutput(tx.Inputs[i].PreviousOutPoint) {
			confirmations := n.activeTip.Height - prev.Height + 1
			if confirmations < int64(n.params.CoinbaseMaturity) {
				return false
			}
		}
		inValue += prev.Value
		if n.ValidateScripts {
			if err := btc.VerifyInput(tx, i, prev.PkScript); err != nil {
				return false
			}
		}
	}
	for i := range tx.Outputs {
		outValue += tx.Outputs[i].Value
	}
	if outValue > inValue {
		return false
	}
	n.mempoolAdd(tx)
	for _, p := range n.peersSorted() {
		n.net.Send(n.ID, p, MsgInvTx{TxID: txid})
	}
	return true
}

func (n *Node) mempoolAdd(tx *btc.Transaction) {
	txid := tx.TxID()
	n.mempool[txid] = tx
	for i := range tx.Inputs {
		n.spends[tx.Inputs[i].PreviousOutPoint] = txid
	}
}

func (n *Node) mempoolRemove(txid btc.Hash) {
	tx := n.mempool[txid]
	delete(n.mempool, txid)
	for i := range tx.Inputs {
		delete(n.spends, tx.Inputs[i].PreviousOutPoint)
	}
}

// isCoinbaseOutput reports whether an outpoint was created by a coinbase
// transaction on the active chain.
func (n *Node) isCoinbaseOutput(op btc.OutPoint) bool {
	u, ok := n.utxoView.Get(op)
	if !ok {
		return false
	}
	node := n.nodeAtActiveHeight(u.Height)
	if node == nil {
		return false
	}
	blk := n.blocks[node.Hash]
	if blk == nil || len(blk.Transactions) == 0 {
		return false
	}
	return blk.Transactions[0].TxID() == op.TxID
}

// nodeAtActiveHeight walks the active chain to the node at a height.
func (n *Node) nodeAtActiveHeight(h int64) *chain.Node {
	cur := n.activeTip
	for cur != nil && cur.Height > h {
		cur = cur.Parent()
	}
	if cur != nil && cur.Height == h {
		return cur
	}
	return nil
}

// MempoolTxs returns the mempool contents in deterministic (txid) order.
func (n *Node) MempoolTxs() []*btc.Transaction {
	txs := make([]*btc.Transaction, 0, len(n.mempool))
	ids := make([]btc.Hash, 0, len(n.mempool))
	for id := range n.mempool {
		ids = append(ids, id)
	}
	sortHashes(ids)
	for _, id := range ids {
		txs = append(txs, n.mempool[id])
	}
	return txs
}

func sortHashes(hs []btc.Hash) {
	for i := 1; i < len(hs); i++ {
		for j := i; j > 0 && lessHash(hs[j], hs[j-1]); j-- {
			hs[j], hs[j-1] = hs[j-1], hs[j]
		}
	}
}

func lessHash(a, b btc.Hash) bool {
	for i := btc.HashSize - 1; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
