// Package canister implements the Bitcoin canister of §III-C: the smart
// contract that maintains the Bitcoin blockchain state on the IC.
//
// The canister stores the UTXO set U up to and including the anchor β* (the
// greatest stable height), the header tree T rooted at the anchor, and the
// blocks for all headers above the anchor. Algorithm 2 processes adapter
// responses delivered in IC blocks: valid blocks are attached to the tree,
// and whenever a block at height h(β*)+1 becomes difficulty-based δ-stable
// with respect to the anchor's work, the anchor advances — its transactions
// are folded into U, its block is discarded, and competing headers at the
// stabilized height are pruned.
//
// The read/write API is the paper's: get_utxos (with confirmations filter
// and pagination), get_balance, and send_transaction. Requests are rejected
// while the canister is more than τ blocks behind the headers it knows
// about ("it is risky to provide outdated information").
package canister

import (
	"bytes"
	"errors"
	"sort"
	"sync"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/chain"
	"icbtc/internal/ic"
	"icbtc/internal/utxo"
)

// Config parameterizes the canister.
type Config struct {
	// Network selects address encoding and chain parameters.
	Network btc.Network
	// StabilityThreshold is δ: a block at anchor height+1 must be
	// difficulty-based δ-stable w.r.t. the anchor's work to become the new
	// anchor (144 on mainnet ≈ one day of blocks).
	StabilityThreshold int64
	// SyncSlack is τ: the canister answers requests only while
	// maxHeight(T) − maxHeight(A) ≤ τ (2 in production).
	SyncSlack int64
	// PageLimit is the maximum UTXOs per get_utxos page.
	PageLimit int
}

// txRebroadcastRounds is how many adapter request rounds an outbound
// transaction stays in the forwarding queue.
const txRebroadcastRounds = 5

// DefaultConfig returns production-flavored parameters for a network
// (δ=144, τ=2), with a small δ for regtest so tests stabilize quickly.
func DefaultConfig(network btc.Network) Config {
	cfg := Config{
		Network:            network,
		StabilityThreshold: 144,
		SyncSlack:          2,
		PageLimit:          1000,
	}
	if network == btc.Regtest {
		cfg.StabilityThreshold = 6
	}
	return cfg
}

// ErrNotSynced is returned for requests while the canister lags the network
// by more than τ blocks.
var ErrNotSynced = errors.New("canister: not synced with the Bitcoin network")

// ErrTooManyConfirmations rejects confirmation filters above δ ("requests
// for c > δ are rejected as the returned set of UTXOs may not be correct").
var ErrTooManyConfirmations = errors.New("canister: requested confirmations exceed stability threshold")

// outgoingTx is an outbound transaction waiting to be forwarded.
type outgoingTx struct {
	raw    []byte
	txid   btc.Hash
	rounds int
}

// haveEntry is one stored unstable block in the canister's incrementally
// maintained Have list, kept sorted by (height, hash) so every replica
// derives the identical adapter request without walking the header tree.
type haveEntry struct {
	height int64
	hash   btc.Hash
}

// BitcoinCanister is the Bitcoin canister state machine. All methods are
// deterministic; the subnet executes them identically on every replica.
type BitcoinCanister struct {
	cfg    Config
	params *btc.Params

	// stable is U, the UTXO set up to and including the anchor.
	stable *utxo.Set
	// tree is T, rooted at the anchor β*.
	tree *chain.Tree
	// blocks holds b(β) for headers above the anchor.
	blocks map[btc.Hash]*storedBlock
	// have mirrors blocks as a (height, hash)-sorted slice: the Have set of
	// CurrentRequest and the source of availableHeight, both maintained
	// incrementally as blocks are stored and pruned instead of BFS-walking
	// the whole header tree every payload round.
	have []haveEntry
	// stableHeaders records every anchor in order ("block headers are kept
	// forever").
	stableHeaders []btc.BlockHeader

	// scriptIDs memoizes script → address-key derivations shared by delta
	// building and owner resolution.
	scriptIDs *btc.ScriptIDCache

	// queryMu guards the per-replica read caches (balanceCache, feeCache).
	// On the authoritative canister everything runs on the simulation
	// goroutine and the mutex is uncontended; on a query-fleet replica many
	// queries execute concurrently under the replica's read lock, and the
	// caches are the only state they mutate.
	queryMu sync.Mutex
	// balanceCache memoizes get_balance results for the overlay read path,
	// keyed by (address, tip, minConfirmations). Any tree mutation — a new
	// block or header, an anchor advance, a reorg — clears it; within one
	// tree state the merged view is immutable, so entries stay coherent.
	// Between two mutations it holds at most maxBalanceCache entries.
	balanceCache map[balanceKey]int64
	// feeCache memoizes get_current_fee_percentiles for the overlay read
	// path, keyed by (tip, anchor height): the percentiles are a function of
	// the unstable suffix, which changes identity when either moves. Cleared
	// together with the balance cache on every tree mutation.
	feeCache feeCacheEntry

	// stream, when set, receives one Frame per processed payload carrying
	// the accepted mutations (blocks with their deltas, headers, anchor
	// advances) — the feed the read-replica query fleet stays fresh from.
	stream func(*Frame)
	// events accumulates the current payload's stream events (only while a
	// sink is installed).
	events []StreamEvent
	// pending lists, in attach order, the current payload's attached blocks
	// whose deltas are not built yet (buildDeltas); nil between payloads.
	pending []pendingDelta
	// curChain caches tree.CurrentChain(); any tree mutation clears it.
	// Queries between payloads share one chain walk instead of re-deriving
	// the tip per request.
	curChain []*chain.Node

	outgoing []outgoingTx
	synced   bool
	// availableHeight is the greatest height for which a block (not just a
	// header) is present, maintained by updateSynced from the have list.
	availableHeight int64

	// adapterHealth is the adapter's latest self-report, recorded off each
	// processed payload (or applied frame, on a replica) and served by
	// get_health. Transient operational state: deliberately NOT part of the
	// snapshot — a restored canister starts at StateUnknown until its first
	// payload.
	adapterHealth adapter.Health
	// lastSentHealth is the health carried on the last published stream
	// frame; a change forces a frame even when a payload accepted nothing,
	// so replicas learn about degradation (and recovery) promptly.
	lastSentHealth adapter.Health

	// stats
	ingestedBlocks  int
	rejectedBlocks  int
	rejectedHeaders int
	anchorHeight    int64
	applyErrors     int

	// met is the obs instrumentation (registry plus precomputed counters).
	// Like adapterHealth it is operational state, not chain state: excluded
	// from the snapshot and reset by restore.
	met *canisterMetrics
}

// New creates a canister anchored at the network genesis.
func New(cfg Config) *BitcoinCanister {
	params := btc.ParamsForNetwork(cfg.Network)
	c := &BitcoinCanister{
		cfg:          cfg,
		params:       params,
		stable:       utxo.New(cfg.Network),
		tree:         chain.NewTree(params.GenesisHeader, 0),
		blocks:       make(map[btc.Hash]*storedBlock),
		scriptIDs:    btc.NewScriptIDCache(cfg.Network),
		balanceCache: make(map[balanceKey]int64),
		met:          newCanisterMetrics(),
	}
	c.stableHeaders = append(c.stableHeaders, params.GenesisHeader)
	// A fresh canister is trivially synced (maxHeight(T) == anchor height);
	// the flag is recomputed after every processed payload.
	c.synced = true
	return c
}

// Anchor returns the current anchor header β* and its height.
func (c *BitcoinCanister) Anchor() (btc.BlockHeader, int64) {
	root := c.tree.Root()
	return root.Header, root.Height
}

// AnchorHeight returns h(β*).
func (c *BitcoinCanister) AnchorHeight() int64 { return c.tree.Root().Height }

// Synced reports whether the canister currently answers requests.
func (c *BitcoinCanister) Synced() bool { return c.synced }

// StableUTXOCount returns |U|.
func (c *BitcoinCanister) StableUTXOCount() int { return c.stable.Len() }

// StableStorageBytes approximates the canister's UTXO storage footprint.
func (c *BitcoinCanister) StableStorageBytes() int64 { return c.stable.ApproxBytes() }

// UnstableBlockCount returns the number of blocks stored above the anchor.
func (c *BitcoinCanister) UnstableBlockCount() int { return len(c.blocks) }

// IngestedBlocks returns how many blocks Algorithm 2 accepted.
func (c *BitcoinCanister) IngestedBlocks() int { return c.ingestedBlocks }

// TipHeight returns the height of the current chain tip (max d_w path).
func (c *BitcoinCanister) TipHeight() int64 { return c.tipNode().Height }

// CurrentRequest builds the canister's update request for the adapter: the
// anchor, the header hashes above the anchor whose blocks are present (A),
// and pending outbound transactions (T). The Have set is the incrementally
// maintained (height, hash)-sorted block list — a straight copy, no tree
// walk — and deterministic, so every replica derives the identical request.
func (c *BitcoinCanister) CurrentRequest() adapter.Request {
	root := c.tree.Root()
	req := adapter.Request{
		Anchor:       root.Header,
		AnchorHeight: root.Height,
	}
	if len(c.have) > 0 {
		req.Have = make([]btc.Hash, len(c.have))
		for i := range c.have {
			req.Have[i] = c.have[i].hash
		}
	}
	for _, tx := range c.outgoing {
		req.Txs = append(req.Txs, tx.raw)
	}
	return req
}

// haveLess orders the have list by height, then hash bytes.
func haveLess(a, b haveEntry) bool {
	if a.height != b.height {
		return a.height < b.height
	}
	return bytes.Compare(a.hash[:], b.hash[:]) < 0
}

// storeBlock records a validated block for a tree node: the blocks map and
// the sorted have list stay in lockstep.
func (c *BitcoinCanister) storeBlock(node *chain.Node, block *btc.Block) {
	c.blocks[node.Hash] = &storedBlock{Block: block}
	e := haveEntry{height: node.Height, hash: node.Hash}
	i := sort.Search(len(c.have), func(i int) bool { return haveLess(e, c.have[i]) })
	c.have = append(c.have, haveEntry{})
	copy(c.have[i+1:], c.have[i:])
	c.have[i] = e
}

// dropBlock discards a stored block (anchor advance or branch pruning),
// keeping the have list consistent.
func (c *BitcoinCanister) dropBlock(node *chain.Node) {
	if c.blocks[node.Hash] == nil {
		return
	}
	delete(c.blocks, node.Hash)
	e := haveEntry{height: node.Height, hash: node.Hash}
	i := sort.Search(len(c.have), func(i int) bool { return !haveLess(c.have[i], e) })
	if i < len(c.have) && c.have[i].hash == node.Hash {
		c.have = append(c.have[:i], c.have[i+1:]...)
	}
}

// invalidateChain drops the cached current chain after a tree mutation.
func (c *BitcoinCanister) invalidateChain() { c.curChain = nil }

// currentChain returns the cached root-to-tip path of the current chain,
// recomputing it only after a tree mutation.
func (c *BitcoinCanister) currentChain() []*chain.Node {
	if c.curChain == nil {
		c.curChain = c.tree.CurrentChain()
	}
	return c.curChain
}

// tipNode returns the current chain's tip from the cache.
func (c *BitcoinCanister) tipNode() *chain.Node {
	cc := c.currentChain()
	return cc[len(cc)-1]
}

// acceptHeader validates a header against the tree (the same §III-B checks
// the adapter performs) and inserts it.
func (c *BitcoinCanister) acceptHeader(ctx *ic.CallContext, h btc.BlockHeader) error {
	ctx.Meter.Charge(ic.CostPerHeaderValidation, "validate_headers")
	hash := h.BlockHash()
	if c.tree.Contains(hash) {
		return nil // already known: not an error, nothing to do
	}
	parent := c.tree.Get(h.PrevBlock)
	if parent == nil {
		return chain.ErrOrphan
	}
	if err := chain.ValidateHeader(&h, parent, c.params, ctx.Time); err != nil {
		return err
	}
	if _, err := c.tree.Insert(h); err != nil {
		return err
	}
	c.invalidateChain()
	c.emit(StreamEvent{Kind: EventHeaderAttached, Header: h})
	return nil
}

// acceptBlock validates a (block, header) pair per §III-C — header checks,
// well-formedness, predecessor availability, Merkle root — and stores it.
// Transaction spending conditions are intentionally NOT validated.
//
// The block's delta is charged here but not built: during catch-up most
// blocks of a payload are folded before it ends, and nothing reads a folded
// block's delta. acceptBlock records the block as pending, with the stable
// set's removal-log mark, and buildDeltas builds the delta once the
// payload's folds are done, if the block is still above the anchor then.
func (c *BitcoinCanister) acceptBlock(ctx *ic.CallContext, bw adapter.BlockWithHeader) error {
	if bw.Block == nil {
		return errors.New("canister: nil block")
	}
	hash := bw.Header.BlockHash()
	if bw.Block.BlockHash() != hash {
		return errors.New("canister: block does not match header")
	}
	if c.blocks[hash] != nil {
		return nil // duplicate delivery is harmless
	}
	// The predecessor's block must be available (or be the anchor itself).
	prev := c.tree.Get(bw.Header.PrevBlock)
	if prev == nil {
		return chain.ErrOrphan
	}
	if prev != c.tree.Root() && c.blocks[prev.Hash] == nil {
		return errors.New("canister: predecessor block not available")
	}
	if err := c.acceptHeader(ctx, bw.Header); err != nil {
		return err
	}
	if err := chain.ValidateBlock(bw.Block); err != nil {
		return err
	}
	node := c.tree.Get(hash)
	c.storeBlock(node, bw.Block)
	c.ingestedBlocks++
	c.met.blocksIngested.Inc()
	// The block's address-indexed delta is metered at attach whether or not
	// it is ever built, so metering does not depend on how a chain is split
	// into payloads.
	ctx.Meter.Charge(uint64(len(bw.Block.Transactions))*ic.CostPerDeltaBuildTx, "build_delta")
	p := pendingDelta{node: node, since: c.stable.RemovalMark(), event: -1}
	if c.stream != nil {
		p.block, p.event = bw.Block, len(c.events)
		c.emit(StreamEvent{
			Kind:     EventBlockAttached,
			Header:   bw.Header,
			RawBlock: bw.Block.Bytes(), // a parsed block's own wire bytes, not a re-serialization
		})
	}
	c.pending = append(c.pending, p)
	return nil
}

// pendingDelta is a block the payload in progress attached, whose delta
// buildDeltas has yet to build.
type pendingDelta struct {
	node *chain.Node
	// since is the stable set's removal-log mark at attach: the folds logged
	// from it on ran after the block attached.
	since int
	// event is the block's EventBlockAttached in c.events, and block the
	// block itself, kept for a frame that needs a delta even if the payload
	// drops the block; -1 and nil without a stream sink.
	event int
	block *btc.Block
}

// buildDeltas builds, in attach order, the delta of every block the payload
// attached, once its folds are done. A block still above the anchor gets its
// full delta on its tree node, where the overlay read path merges it
// instead of rescanning the block and pruning (reorg, anchor advance)
// discards it with the node. A block the payload folded or pruned gets
// nothing — unless a stream sink is installed: its frame event still carries
// a delta, which the replica drops in the same frame without reading, so it
// is the created column alone, with no owner resolved.
func (c *BitcoinCanister) buildDeltas() {
	for _, p := range c.pending {
		var delta *utxo.BlockDelta
		if sb := c.blocks[p.node.Hash]; sb != nil {
			delta = utxo.BuildBlockDelta(sb.Block, p.node.Height, c.scriptIDs, c.resolveOwner(p.node, p.since))
			p.node.SetAux(delta)
		} else if p.event >= 0 {
			delta = utxo.PrepareBlockDelta(p.block, p.node.Height, c.scriptIDs).Finish(nil)
		}
		if p.event >= 0 {
			c.events[p.event].Delta = delta
		}
	}
	c.pending = nil
}

// unstable reports whether a block the payload attached is still above the
// anchor. Neither a fold nor a prune is undone within a payload: the dropped
// block's parent has left the tree, so the block cannot attach again.
func (c *BitcoinCanister) unstable(node *chain.Node) bool { return c.blocks[node.Hash] != nil }

// resolveOwner attributes an outpoint spent by a block attached at node to
// the address keys whose merged views may contain it: the outpoint's owner
// if, when the block attached, it was in the stable set or created by one of
// the node's unstable ancestors. The question is answered after the
// payload's folds, which may since have moved some of those ancestors into
// U. It is answered from three places:
//   - the ancestors still above the anchor;
//   - U as it is now;
//   - the entries folds removed from U since the block attached (the stable
//     set's removal log from since on).
//
// A fold moves an ancestor's surviving outputs into U and removes exactly
// the entries it spends, so together the three hold what U and the unstable
// ancestors held at attach. An outpoint names one transaction output, so
// every place that knows it agrees on its key and value. An unresolvable
// outpoint (an alien input the canister never tracked, or one created on a
// competing branch) yields no owners — the spend is a no-op for every view,
// exactly as the naive replay's unconditional delete would be.
func (c *BitcoinCanister) resolveOwner(node *chain.Node, since int) utxo.OwnerResolver {
	// The ancestors' deltas are the same for every spend of the block.
	ancestors := make([]*utxo.BlockDelta, 0, 8)
	for anc := node.Parent(); anc != nil; anc = anc.Parent() {
		if d, _ := anc.Aux().(*utxo.BlockDelta); d != nil {
			ancestors = append(ancestors, d)
		}
	}
	return func(op btc.OutPoint, owners []utxo.OwnedOutput) []utxo.OwnedOutput {
		// The outpoint is hashed once — every delta indexes under one seed —
		// and an ancestor that did not create it costs one word load. Keys are
		// deduplicated by comparing against the owners found so far: there are
		// at most a couple, and a per-spend set would cost an allocation for
		// each input of the block.
		found := len(owners)
		tag := utxo.TagOutPoint(&op)
		for _, d := range ancestors {
			if u := d.CreatedTagged(&op, tag); u != nil {
				if key := c.scriptIDs.ID(u.PkScript); !ownedBy(owners, key) {
					owners = append(owners, utxo.OwnedOutput{AddressKey: key, Value: u.Value})
				}
			}
		}
		// The stable set stores each entry's derived key; no re-derive.
		if u, key, ok := c.stable.Lookup(op); ok && !ownedBy(owners, key) {
			owners = append(owners, utxo.OwnedOutput{AddressKey: key, Value: u.Value})
		}
		// The log is asked only when neither answered: an output it holds that
		// U or an ancestor holds too is the same output, under the same key.
		if len(owners) == found {
			if key, value, ok := c.stable.RemovedSince(op, since); ok {
				owners = append(owners, utxo.OwnedOutput{AddressKey: key, Value: value})
			}
		}
		return owners
	}
}

func ownedBy(owners []utxo.OwnedOutput, key string) bool {
	for i := range owners {
		if owners[i].AddressKey == key {
			return true
		}
	}
	return false
}

// advanceAnchor implements the while-loop of Algorithm 2 (lines 5-13): as
// long as some available block at height h(β*)+1 is difficulty-based
// δ-stable with respect to w(β*), fold it into U and re-root the tree.
func (c *BitcoinCanister) advanceAnchor(ctx *ic.CallContext) {
	for {
		root := c.tree.Root()
		candidates := c.tree.AtHeight(root.Height + 1)
		var next *chain.Node
		for _, cand := range candidates {
			if c.blocks[cand.Hash] == nil {
				continue
			}
			if next == nil || c.tree.DepthByWork(cand).Cmp(c.tree.DepthByWork(next)) > 0 {
				next = cand
			}
		}
		if next == nil {
			return
		}
		if !c.tree.IsWorkStable(next, c.cfg.StabilityThreshold, root.Work) {
			return
		}
		if err := c.stabilizeNode(ctx, next); err != nil {
			return
		}
	}
}

// stabilizeNode folds one δ-stable block into U and re-roots the tree at
// it: ingest the block, discard its stored bytes, prune competing branches
// at the stabilized height, and record the new anchor. Shared between
// advanceAnchor (which decides *when* a block is stable) and ApplyFrame
// (where a replica re-executes the authoritative canister's decision).
func (c *BitcoinCanister) stabilizeNode(ctx *ic.CallContext, next *chain.Node) error {
	root := c.tree.Root()
	c.ingestStableBlock(ctx, c.blocks[next.Hash].Block, next.Height)
	c.dropBlock(next)
	// Prune competing branches (and their stored blocks) below the new
	// anchor; "all but the single stable block header are removed".
	for _, other := range c.tree.AtHeight(root.Height + 1) {
		if other != next {
			c.dropSubtreeBlocks(other)
		}
	}
	if err := c.tree.Reroot(next); err != nil {
		// Cannot happen: next is in the tree. Record and stop.
		c.applyErrors++
		c.met.applyErrors.Inc()
		return err
	}
	// The new anchor's transactions now live in the stable set; its delta
	// (and the read caches derived from the old view) must not be consulted
	// again.
	next.SetAux(nil)
	c.invalidateReadCaches()
	c.invalidateChain()
	c.stableHeaders = append(c.stableHeaders, next.Header)
	c.anchorHeight = next.Height
	c.met.anchorAdvances.Inc()
	c.emit(StreamEvent{Kind: EventAnchorAdvanced, Hash: next.Hash})
	return nil
}

// dropSubtreeBlocks removes stored blocks for an entire pruned branch.
func (c *BitcoinCanister) dropSubtreeBlocks(n *chain.Node) {
	c.dropBlock(n)
	for _, child := range n.Children() {
		c.dropSubtreeBlocks(child)
	}
}

// ingestStableBlock folds a stable block's transactions into U through the
// tolerant apply (one pass in block order straight against the set, bucket
// inserts deferred to one ordered merge per touched address) and meters the
// work from its stats — charge for charge what the per-entry loop charged
// (the Fig 6 cost breakdown): every removal attempt, and every output priced
// by whether its script was interned at the moment that output was
// processed. Missing inputs and duplicate outputs are tolerated — the
// canister trusts proof of work, not transaction validity.
func (c *BitcoinCanister) ingestStableBlock(ctx *ic.CallContext, block *btc.Block, height int64) {
	ctx.Meter.Charge(ic.CostBlockOverhead, "block_overhead")
	ctx.Meter.Charge(uint64(len(block.Transactions))*ic.CostPerTxOverhead, "block_overhead")
	st := c.stable.ApplyBlockIngest(block, height)
	ctx.Meter.Charge(uint64(st.InputsRemoved)*ic.CostPerInputRemove, "remove_inputs")
	ctx.Meter.Charge(uint64(st.OutputsInterned)*ic.CostPerOutputInsertInterned, "insert_outputs")
	ctx.Meter.Charge(uint64(st.OutputsFresh)*ic.CostPerOutputInsert, "insert_outputs")
	c.applyErrors += st.Errors
	c.met.applyErrors.Add(uint64(st.Errors))
}

// ageOutgoing decrements rebroadcast budgets and drops exhausted entries.
func (c *BitcoinCanister) ageOutgoing() {
	kept := c.outgoing[:0]
	for _, tx := range c.outgoing {
		tx.rounds--
		if tx.rounds > 0 {
			kept = append(kept, tx)
		}
	}
	c.outgoing = kept
}

// updateSynced recomputes the τ condition of Algorithm 2 (lines 21-22).
// The available height is read off the incrementally maintained have list
// (sorted by height, so the maximum is its last entry) — the old BFS over
// the whole header tree per payload round is gone.
func (c *BitcoinCanister) updateSynced() {
	maxT := c.tree.MaxHeight()
	maxA := c.tree.Root().Height
	if n := len(c.have); n > 0 && c.have[n-1].height > maxA {
		maxA = c.have[n-1].height
	}
	c.availableHeight = maxA
	c.synced = maxT-maxA <= c.cfg.SyncSlack
}

// AvailableHeight returns the greatest height for which the canister holds
// the block itself (headers may extend further, bounded by τ).
func (c *BitcoinCanister) AvailableHeight() int64 {
	if c.availableHeight < c.tree.Root().Height {
		return c.tree.Root().Height
	}
	return c.availableHeight
}
