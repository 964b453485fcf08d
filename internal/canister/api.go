package canister

import (
	"fmt"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/chain"
	"icbtc/internal/ic"
	"icbtc/internal/utxo"
)

// GetUTXOsArgs are the parameters of the get_utxos endpoint: a Bitcoin
// address, the network, and an optional filter — either a minimum number of
// confirmations or a page reference (§III-C).
type GetUTXOsArgs struct {
	Address string
	Network btc.Network
	// MinConfirmations, when > 0, restricts the view to confirmation-based
	// c-stable blocks. Values above δ are rejected.
	MinConfirmations int64
	// Page resumes a paginated retrieval.
	Page utxo.PageToken
	// Limit caps the page size (0 = canister default).
	Limit int
}

// GetUTXOsResult is the get_utxos response: the UTXOs, the tip of the
// considered chain, and a next-page reference when the response is partial.
// Each UTXO is a coin, (outpoint, value, height) as in the IC API: the
// queried address names the script.
type GetUTXOsResult struct {
	UTXOs     []utxo.Coin
	TipHash   btc.Hash
	TipHeight int64
	NextPage  utxo.PageToken
	// StableCount/UnstableCount report where the UTXOs came from (drives
	// the Fig 7 bifurcation).
	StableCount, UnstableCount int
}

// GetBalanceArgs are the parameters of the get_balance endpoint.
type GetBalanceArgs struct {
	Address          string
	Network          btc.Network
	MinConfirmations int64
}

// SendTransactionArgs are the parameters of send_transaction: a serialized
// Bitcoin transaction and the target network.
type SendTransactionArgs struct {
	RawTx   []byte
	Network btc.Network
}

// HealthStatus is the get_health response: the canister's sync position and
// the Bitcoin adapter's last self-report. Unlike the data endpoints it is
// served even while the canister is out of sync — its whole purpose is to
// explain WHY answers are stale (or absent) when the chain feed degrades.
type HealthStatus struct {
	// AdapterState is the adapter's coarse state from its last report
	// (unknown until the first processed payload).
	AdapterState adapter.State
	// AdapterHeight is the adapter's best known header height.
	AdapterHeight int64
	// TipHeight/AnchorHeight locate the considered chain.
	TipHeight    int64
	AnchorHeight int64
	// AvailableHeight is the greatest height with a full block present.
	AvailableHeight int64
	// TipLag is how many blocks the served state trails the adapter's best
	// header (0 when caught up).
	TipLag int64
	// Synced mirrors the τ condition gating the data endpoints.
	Synced bool
	// Degraded is true when the adapter's stall detector fired: served data
	// may be arbitrarily stale.
	Degraded bool
}

// Update implements ic.Canister for replicated calls. Dispatch derives from
// the typed method registry (registry.go) — every registered method is
// servable on the replicated path.
func (c *BitcoinCanister) Update(ctx *ic.CallContext, method string, arg any) (any, error) {
	m, ok := MethodByName(method)
	if !ok {
		return nil, fmt.Errorf("canister: no update method %q", method)
	}
	before := ctx.Meter.Total()
	out, err := m.handle(c, ctx, arg)
	c.recordDispatch(method, ctx.Meter, before)
	return out, err
}

// Query implements ic.Canister for non-replicated calls. The servable set —
// formerly a hand-maintained string list mirroring the Update switch — is
// the registry's read-only methods.
func (c *BitcoinCanister) Query(ctx *ic.CallContext, method string, arg any) (any, error) {
	m, ok := MethodByName(method)
	if !ok || m.Kind != MethodReadOnly {
		return nil, fmt.Errorf("canister: no query method %q", method)
	}
	before := ctx.Meter.Total()
	out, err := m.handle(c, ctx, arg)
	c.recordDispatch(method, ctx.Meter, before)
	return out, err
}

// GetHealth serves the get_health endpoint. It deliberately skips
// checkServable: an out-of-sync or degraded canister must still explain
// itself — that is the endpoint's job.
func (c *BitcoinCanister) GetHealth(ctx *ic.CallContext) (*HealthStatus, error) {
	ctx.Meter.Charge(ic.CostRequestBase, "request_base")
	h := &HealthStatus{
		AdapterState:    c.adapterHealth.State,
		AdapterHeight:   c.adapterHealth.Height,
		TipHeight:       c.tipNode().Height,
		AnchorHeight:    c.tree.Root().Height,
		AvailableHeight: c.availableHeight,
		Synced:          c.synced,
		Degraded:        c.adapterHealth.State == adapter.StateDegraded,
	}
	if lag := h.AdapterHeight - h.AvailableHeight; lag > 0 {
		h.TipLag = lag
	}
	return h, nil
}

// checkServable rejects requests on the wrong network or while out of sync.
func (c *BitcoinCanister) checkServable(network btc.Network) error {
	if network != 0 && network != c.cfg.Network {
		return fmt.Errorf("canister: serves %v, request for %v", c.cfg.Network, network)
	}
	if !c.synced {
		return ErrNotSynced
	}
	return nil
}

// consideredChain returns the unstable blocks (anchor excluded) along the
// current chain — the d_w-maximal path — restricted, when minConf > 0, to
// confirmation-based minConf-stable blocks. The chain itself is cached
// between tree mutations; the unfiltered return value is shared and must
// not be mutated.
func (c *BitcoinCanister) consideredChain(minConf int64) ([]*chain.Node, error) {
	if minConf > c.cfg.StabilityThreshold {
		return nil, fmt.Errorf("%w: %d > δ=%d", ErrTooManyConfirmations, minConf, c.cfg.StabilityThreshold)
	}
	full := c.currentChain()
	nodes := full[1:] // skip the anchor (already folded into U)
	if minConf <= 0 {
		return nodes, nil
	}
	var out []*chain.Node
	for _, n := range nodes {
		if !c.tree.IsCountStable(n, minConf) {
			break // stability is monotone along the chain
		}
		out = append(out, n)
	}
	return out, nil
}

// GetUTXOs serves the get_utxos endpoint: the union of the stable set and
// the unstable blocks of the considered chain, height-descending, paginated.
//
// The page streams directly off the ordered address index merged with the
// unstable deltas: the cursor is located by binary search and only the page
// is copied — no per-request sort, no full-bucket copy. ReplayUTXOs
// (replay.go) retains the naive §III-C materialize-and-sort flow as the
// reference; the differential harness asserts both produce byte-identical
// responses.
func (c *BitcoinCanister) GetUTXOs(ctx *ic.CallContext, args GetUTXOsArgs) (*GetUTXOsResult, error) {
	ctx.Meter.Charge(ic.CostRequestBase, "request_base")
	if err := c.checkServable(args.Network); err != nil {
		return nil, err
	}
	limit := c.pageLimit(args.Limit)
	nodes, err := c.consideredChain(args.MinConfirmations)
	if err != nil {
		return nil, err
	}
	tip := c.consideredTip(nodes)
	ov := c.unstableOverlayFor(ctx, args.Address, nodes)
	ctx.Meter.Charge(ic.CostPerIndexSeek, "page_seek")
	page, unstable, next, err := c.stable.MergedPage(args.Address, ov.Created(), &ov, args.Page, limit)
	if err != nil {
		return nil, err
	}
	// Metering is per returned UTXO: the pagination limit caps the cost of
	// one request (the ceiling visible in Fig 7 right), and UTXOs served
	// from unstable blocks are cheaper than ones streamed off the stable
	// index (the figure's bifurcation).
	stable := len(page) - unstable
	if stable > 0 {
		ctx.Meter.Charge(uint64(stable)*ic.CostPerUTXOStableIndexed, "fetch_stable")
	}
	if unstable > 0 {
		ctx.Meter.Charge(uint64(unstable)*ic.CostPerUTXOUnstable, "fetch_unstable")
	}
	return &GetUTXOsResult{
		UTXOs:         page,
		TipHash:       tip.Hash,
		TipHeight:     tip.Height,
		NextPage:      next,
		StableCount:   stable,
		UnstableCount: unstable,
	}, nil
}

// pageLimit clamps a requested page size to the canister's maximum.
func (c *BitcoinCanister) pageLimit(requested int) int {
	if requested <= 0 || requested > c.cfg.PageLimit {
		return c.cfg.PageLimit
	}
	return requested
}

// balanceKey identifies one memoizable get_balance computation: the merged
// view depends only on the address, the tree state (identified by the tip
// hash and invalidated wholesale on any tree mutation), and the
// confirmations filter.
type balanceKey struct {
	address string
	tip     btc.Hash
	minConf int64
}

// invalidateReadCaches drops all memoized balances and fee percentiles.
// Called on every tree mutation (new blocks or headers, anchor advance) —
// the overlay's cache coherence rule.
func (c *BitcoinCanister) invalidateReadCaches() {
	c.queryMu.Lock()
	if len(c.balanceCache) > 0 {
		c.balanceCache = make(map[balanceKey]int64)
	}
	c.feeCache = feeCacheEntry{}
	c.queryMu.Unlock()
}

// BalanceCacheSize returns the number of memoized balances (observability).
func (c *BitcoinCanister) BalanceCacheSize() int {
	c.queryMu.Lock()
	defer c.queryMu.Unlock()
	return len(c.balanceCache)
}

// GetBalance serves the get_balance convenience endpoint. Results are
// memoized per (address, tip, minConfirmations), up to maxBalanceCache of
// them; the cache is kept coherent by invalidation on every tree mutation.
func (c *BitcoinCanister) GetBalance(ctx *ic.CallContext, args GetBalanceArgs) (int64, error) {
	ctx.Meter.Charge(ic.CostRequestBase, "request_base")
	if err := c.checkServable(args.Network); err != nil {
		return 0, err
	}
	// The cache serves non-replicated executions only: on the real IC a
	// query cannot persist canister state, but a per-replica read cache is
	// fair game — and it keeps replicated execution deterministic no matter
	// what queries ran before it.
	useCache := ctx.Kind == ic.KindQuery
	var key balanceKey
	if useCache {
		key = balanceKey{address: args.Address, tip: c.tipNode().Hash, minConf: args.MinConfirmations}
		c.queryMu.Lock()
		total, ok := c.balanceCache[key]
		c.queryMu.Unlock()
		if ok {
			ctx.Meter.Charge(ic.CostBalanceCacheHit, "balance_cache_hit")
			return total, nil
		}
	}
	total, err := c.balanceIndexed(ctx, args.Address, args.MinConfirmations)
	if err != nil {
		return 0, err
	}
	if useCache {
		c.queryMu.Lock()
		if len(c.balanceCache) < maxBalanceCache {
			c.balanceCache[key] = total
		}
		c.queryMu.Unlock()
	}
	return total, nil
}

// maxBalanceCache bounds the memo between two tree mutations: anyone may ask
// for the balance of any string at any confirmation count, and each distinct
// question is an entry until the next block clears them — ten minutes of
// flood on mainnet. The first to fill stay, as in the fleet's response cache;
// a question past the bound is answered off the index each time. The bound is
// far above any population the benchmark or the figures query (1000
// addresses) and costs a few megabytes when reached.
const maxBalanceCache = 1 << 16

// balanceIndexed computes a balance off the ordered index without
// materializing the merged view: the bucket's O(1) running total, minus the
// value of stable outpoints the unstable chain spent, plus the surviving
// unstable creations. Charged per merged UTXO exactly like the replay sum,
// so both paths meter identically whenever the unstable suffix is empty.
func (c *BitcoinCanister) balanceIndexed(ctx *ic.CallContext, address string, minConf int64) (int64, error) {
	nodes, err := c.consideredChain(minConf)
	if err != nil {
		return 0, err
	}
	ov := c.unstableOverlayFor(ctx, address, nodes)
	total, count := c.stable.MergedBalance(address, &ov)
	if count > 0 {
		ctx.Meter.Charge(uint64(count)*ic.CostPerBalanceUTXO, "sum_balance")
	}
	return total, nil
}

// consideredTip returns the tip of a considered chain: its last unstable
// node, or the anchor when the confirmations filter (or an empty suffix)
// leaves no unstable blocks. Both read paths must report the same tip for
// the differential oracle to stay byte-identical.
func (c *BitcoinCanister) consideredTip(nodes []*chain.Node) *chain.Node {
	if len(nodes) > 0 {
		return nodes[len(nodes)-1]
	}
	return c.tree.Root()
}

// unstableOverlayFor folds the per-block deltas along the considered chain,
// in chain order, into one address's overlay (utxo.AddressOverlay): the
// surviving creations in canonical order and the outpoints to drop from the
// stable stream. Per block the work is a delta lookup plus the handful of
// entries touching the queried address — the linear-in-δ full-block rescans
// of §III-C are gone; metering charges per delta lookup and entry
// accordingly. The first pass sizes the overlay, so it is allocated once, and
// not at all for an address the unstable suffix never touched.
func (c *BitcoinCanister) unstableOverlayFor(ctx *ic.CallContext, address string, nodes []*chain.Node) utxo.AddressOverlay {
	entries := 0
	for _, node := range nodes {
		ctx.Meter.Charge(ic.CostPerDeltaLookup, "delta_lookup")
		delta, _ := node.Aux().(*utxo.BlockDelta)
		if delta == nil {
			continue // header-only node (no block yet), same as replay's skip
		}
		if n := delta.EntriesFor(address); n > 0 {
			ctx.Meter.Charge(uint64(n)*ic.CostPerDeltaEntry, "delta_apply")
			entries += n
		}
	}
	if entries == 0 {
		return utxo.AddressOverlay{}
	}
	ov := utxo.NewAddressOverlay(entries)
	for _, node := range nodes {
		if delta, _ := node.Aux().(*utxo.BlockDelta); delta != nil {
			ov.Apply(delta, address)
		}
	}
	ov.Seal()
	return ov
}

// SendTransaction serves send_transaction: syntax-check the bytes and queue
// them for forwarding to the Bitcoin adapter with the next update requests.
func (c *BitcoinCanister) SendTransaction(ctx *ic.CallContext, args SendTransactionArgs) error {
	ctx.Meter.Charge(ic.CostRequestBase, "request_base")
	if args.Network != 0 && args.Network != c.cfg.Network {
		return fmt.Errorf("canister: serves %v, transaction for %v", c.cfg.Network, args.Network)
	}
	tx, err := btc.ParseTransaction(args.RawTx)
	if err != nil {
		return fmt.Errorf("canister: malformed transaction: %w", err)
	}
	if err := tx.CheckSanity(); err != nil {
		return fmt.Errorf("canister: rejected transaction: %w", err)
	}
	txid := tx.TxID()
	for _, pending := range c.outgoing {
		if pending.txid == txid {
			return nil // already queued
		}
	}
	raw := make([]byte, len(args.RawTx))
	copy(raw, args.RawTx)
	c.outgoing = append(c.outgoing, outgoingTx{
		raw:    raw,
		txid:   txid,
		rounds: txRebroadcastRounds,
	})
	return nil
}

// PendingTransactions returns the number of queued outbound transactions.
func (c *BitcoinCanister) PendingTransactions() int { return len(c.outgoing) }

// Compile-time interface checks.
var (
	_ ic.Canister         = (*BitcoinCanister)(nil)
	_ ic.PayloadProcessor = (*BitcoinCanister)(nil)
	_ ic.Snapshotter      = (*BitcoinCanister)(nil)
	_ ic.MethodTable      = (*BitcoinCanister)(nil)
)
