package utxo

import (
	"icbtc/internal/btc"
)

// Incremental unstable-state overlay (read-path optimization). The naive
// get_utxos/get_balance implementation replays every unstable block for
// every request, so query cost grows linearly with δ (§III-C notes exactly
// this complexity). A BlockDelta is the address-indexed net effect of one
// unstable block, computed once when the block is attached to the header
// tree; the read path then merges the stable set with the chain of per-block
// deltas for just the queried address instead of rescanning full blocks.

// BlockDelta is the address-indexed delta of one block: the outputs it
// created (net of outputs it created and spent itself) and the pre-existing
// outpoints it spent attributed to their owning addresses. A delta is
// immutable once built.
type BlockDelta struct {
	height int64

	// createdByAddr holds surviving created outputs per address key, in
	// block order (the canonical order the naive replay would add them).
	createdByAddr map[string][]UTXO
	// spentByAddr holds spent pre-existing outpoints per owning address.
	// The same outpoint may appear more than once (redundant double spends
	// inside one block); merge deletion is idempotent, matching replay.
	spentByAddr map[string][]SpentOutPoint
	// createdByOp indexes the surviving created outputs by outpoint so
	// descendant blocks can resolve the owner of an outpoint they spend.
	createdByOp map[btc.OutPoint]UTXO

	entries int
}

// SpentOutPoint is one spent pre-existing outpoint with its value, kept so
// balance deltas can be derived without a second lookup.
type SpentOutPoint struct {
	OutPoint btc.OutPoint
	Value    int64
}

// Height returns the block height the delta was computed at.
func (d *BlockDelta) Height() int64 { return d.height }

// Entries returns the total number of created + spent entries, the size
// metric the execution layer's metering charges per applied entry.
func (d *BlockDelta) Entries() int { return d.entries }

// Addresses returns how many distinct address keys the delta touches.
func (d *BlockDelta) Addresses() int {
	seen := make(map[string]struct{}, len(d.createdByAddr)+len(d.spentByAddr))
	for a := range d.createdByAddr {
		seen[a] = struct{}{}
	}
	for a := range d.spentByAddr {
		seen[a] = struct{}{}
	}
	return len(seen)
}

// CreatedFor returns the surviving outputs the block created for an address
// key, in block order. The returned slice is shared; callers must not
// mutate it.
func (d *BlockDelta) CreatedFor(addressKey string) []UTXO { return d.createdByAddr[addressKey] }

// SpentFor returns the pre-existing outpoints the block spent that are
// attributed to an address key. The returned slice is shared.
func (d *BlockDelta) SpentFor(addressKey string) []SpentOutPoint { return d.spentByAddr[addressKey] }

// CreatedOutput resolves an outpoint this block created (and did not itself
// spend), for descendant-delta owner attribution.
func (d *BlockDelta) CreatedOutput(op btc.OutPoint) (UTXO, bool) {
	u, ok := d.createdByOp[op]
	return u, ok
}

// OwnerResolver attributes a spent outpoint to the address keys whose views
// may contain it at the time the delta's block is processed: the stable
// set's owner and/or an unstable ancestor block that created it. It appends
// the owners to buf and returns the result, so a caller that reuses buf
// resolves without allocating. Appending nothing means the spend is a no-op
// for every address view (an alien or already-folded input), exactly as the
// naive replay's unconditional map delete would be.
type OwnerResolver func(op btc.OutPoint, buf []OwnedOutput) []OwnedOutput

// OwnedOutput is one resolution result: the address key owning the outpoint
// and the output's value (for balance deltas).
type OwnedOutput struct {
	AddressKey string
	Value      int64
}

// PreparedDelta is the state-independent half of a BlockDelta: everything
// derivable from the block alone — the surviving created outputs (netted
// against in-block spends), their address-keyed lists, and the ordered list
// of inputs still needing owner attribution against live state. The ingest
// pipeline builds PreparedDeltas on worker goroutines ahead of sequential
// application; Finish then binds one to the state it applies at.
//
// A PreparedDelta is single-use: Finish transfers its maps into the
// resulting BlockDelta.
type PreparedDelta struct {
	height        int64
	createdByAddr map[string][]UTXO
	createdByOp   map[btc.OutPoint]UTXO
	// spends holds every non-coinbase input outpoint in block order — the
	// order the serial path would resolve them in.
	spends []btc.OutPoint
}

// Height returns the block height the delta was prepared at.
func (p *PreparedDelta) Height() int64 { return p.height }

// PrepareBlockDelta computes the state-independent half of a block's delta.
// It is a pure function of the block (plus the memoized address-key
// derivation), so it can run on any goroutine: pipeline workers call it
// with worker-local ScriptIDCaches and hand the result to the sequential
// applier.
func PrepareBlockDelta(block *btc.Block, height int64, ids *btc.ScriptIDCache) *PreparedDelta {
	nOut, nIn := 0, 0
	for _, tx := range block.Transactions {
		nOut += len(tx.Outputs)
		if !tx.IsCoinbase() {
			nIn += len(tx.Inputs)
		}
	}
	p := &PreparedDelta{
		height:        height,
		createdByAddr: make(map[string][]UTXO, 8),
		createdByOp:   make(map[btc.OutPoint]UTXO, nOut),
		spends:        make([]btc.OutPoint, 0, nIn),
	}
	// createdOrder preserves block order for the per-address created lists.
	createdOrder := make([]btc.OutPoint, 0, nOut)
	txids := block.TxIDs()
	for ti, tx := range block.Transactions {
		if !tx.IsCoinbase() {
			for i := range tx.Inputs {
				op := tx.Inputs[i].PreviousOutPoint
				if _, inBlock := p.createdByOp[op]; inBlock {
					// Created earlier in this very block: net the pair out
					// locally; it never becomes visible to any view.
					delete(p.createdByOp, op)
				}
				// Owner attribution needs live state; defer it to Finish, in
				// this exact order.
				p.spends = append(p.spends, op)
			}
		}
		txid := txids[ti]
		for vout := range tx.Outputs {
			op := btc.OutPoint{TxID: txid, Vout: uint32(vout)}
			p.createdByOp[op] = UTXO{
				OutPoint: op,
				Value:    tx.Outputs[vout].Value,
				PkScript: tx.Outputs[vout].PkScript,
				Height:   height,
			}
			createdOrder = append(createdOrder, op)
		}
	}
	// Index the surviving creations by address, in block order. A repeated
	// outpoint (a transaction duplicated inside the block) is emitted once.
	emitted := make(map[btc.OutPoint]bool, len(p.createdByOp))
	for _, op := range createdOrder {
		u, ok := p.createdByOp[op]
		if !ok || emitted[op] {
			continue // netted out by an in-block spend, or already emitted
		}
		emitted[op] = true
		key := ids.ID(u.PkScript)
		p.createdByAddr[key] = append(p.createdByAddr[key], u)
	}
	return p
}

// Finish attributes the prepared delta's external spends through resolve
// and returns the completed BlockDelta — byte-identical to what
// BuildBlockDelta would produce on the same state, because resolve is
// independent of the delta under construction and the spend order is
// preserved. Must run on the applier goroutine (resolve reads live state).
func (p *PreparedDelta) Finish(resolve OwnerResolver) *BlockDelta {
	d := &BlockDelta{
		height:        p.height,
		createdByAddr: p.createdByAddr,
		spentByAddr:   make(map[string][]SpentOutPoint),
		createdByOp:   p.createdByOp,
	}
	// An outpoint has an owner among the unstable ancestors, one in the
	// stable set, both or neither: two slots serve every spend of the block.
	owners := make([]OwnedOutput, 0, 2)
	for _, op := range p.spends {
		// Attribute the spend to every owner whose merged view could
		// currently contain the outpoint. Deletion is idempotent at merge
		// time, so over-attribution cannot skew the view.
		owners = resolve(op, owners[:0])
		for _, owner := range owners {
			d.spentByAddr[owner.AddressKey] = append(d.spentByAddr[owner.AddressKey],
				SpentOutPoint{OutPoint: op, Value: owner.Value})
		}
	}
	for _, c := range d.createdByAddr {
		d.entries += len(c)
	}
	for _, s := range d.spentByAddr {
		d.entries += len(s)
	}
	return d
}

// BuildBlockDelta computes the address-indexed delta of one block. It
// replays the block's transactions in order — exactly the order the naive
// read path would — netting out outputs created and spent within the block,
// and attributes external spends through resolve. Transaction IDs come from
// the block's memoized table and address keys from the shared ScriptID
// cache, so neither is re-derived per output. Equivalent to
// PrepareBlockDelta followed by Finish — the serial path and the pipelined
// path share this exact code.
func BuildBlockDelta(block *btc.Block, height int64, ids *btc.ScriptIDCache, resolve OwnerResolver) *BlockDelta {
	return PrepareBlockDelta(block, height, ids).Finish(resolve)
}

// EntriesFor returns how many created + spent entries the delta holds for
// one address key — the per-delta work a merged read performs.
func (d *BlockDelta) EntriesFor(addressKey string) int {
	return len(d.createdByAddr[addressKey]) + len(d.spentByAddr[addressKey])
}
