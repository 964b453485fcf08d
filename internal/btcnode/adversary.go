package btcnode

import (
	"fmt"
	"time"

	"icbtc/internal/btc"
	"icbtc/internal/chain"
	"icbtc/internal/simnet"
)

// Adversary models the attacker of §IV-A: it controls a set of Bitcoin
// nodes and has hash power to mine private forks at the honest difficulty
// target (Definition IV.2 bounds how far ahead it can get; the experiments
// sweep that bound).
//
// An adversarial node behaves like a regular node toward its peers but can
// (a) build a private fork off any block and (b) selectively serve only the
// fork ("fork feeding") or serve nothing ("eclipse"), the behaviors used in
// the Lemma IV.2 and IV.3 experiments.
type Adversary struct {
	Node  *Node
	miner *Miner
	// fork holds the privately mined chain, oldest first.
	fork []*btc.Block
	// serveForkOnly, when set, makes the node answer header/data requests
	// exclusively from the private fork.
	serveForkOnly bool
	// silent, when set, makes the node ignore all requests (eclipse).
	silent bool
	// withholdData, when set, answers header requests normally but drops
	// getdata: peers learn of blocks they can never download (withholding).
	withholdData bool
	// corruptBlocks, when set, serves blocks whose transaction list has been
	// tampered with after sealing, so the merkle root no longer matches.
	corruptBlocks bool
	// frozen, when set, drops all announcements (headers/inv/blocks/addr
	// pushes) while still answering explicit requests: the node serves an
	// ever-staler view of the chain.
	frozen bool
	// slowDrip, when > 0, delays the handling of every incoming message by
	// that much virtual time — a slowloris peer that eventually answers
	// everything, but far too late for any request deadline.
	slowDrip time.Duration
}

// NewAdversary wraps a node with adversarial behaviors. The node's script
// validation is disabled: the attacker may include invalid transactions in
// its blocks ("the Bitcoin canister does not verify that the spending
// conditions of transactions are satisfied", §IV-A).
func NewAdversary(id simnet.NodeID, net *simnet.Network, params *btc.Params) *Adversary {
	n := NewNode(id, net, params)
	n.ValidateScripts = false
	a := &Adversary{Node: n}
	a.miner = NewMiner(n, btc.PayToPubKeyHashScript([20]byte{0xEE}))
	// The adversary intercepts its node's message handling.
	net.Register(id, a)
	return a
}

// SetServeForkOnly toggles fork-only serving.
func (a *Adversary) SetServeForkOnly(v bool) { a.serveForkOnly = v }

// SetSilent toggles eclipse mode (no responses at all).
func (a *Adversary) SetSilent(v bool) { a.silent = v }

// SetWithholdData toggles block withholding: headers are announced and
// served, but getdata requests are silently dropped, starving the
// requester's block download while its header tree keeps growing.
func (a *Adversary) SetWithholdData(v bool) { a.withholdData = v }

// SetCorruptBlocks toggles invalid-block serving: every block served via
// getdata has a junk transaction appended after the header was sealed, so
// the merkle root check on the receiving side must reject it.
func (a *Adversary) SetCorruptBlocks(v bool) { a.corruptBlocks = v }

// SetFrozen toggles stale serving: the node stops processing announcements
// (its view of the chain freezes) but keeps answering explicit requests
// from that stale view.
func (a *Adversary) SetFrozen(v bool) { a.frozen = v }

// SetSlowDrip turns the node into a slowloris peer: every incoming message
// is processed — and therefore answered — only after d of virtual time.
// Unlike silence, the peer never stops responding entirely; it is simply too
// slow for any deadline, which is exactly what per-request timeouts and peer
// scoring must catch. Zero disables the delay (messages already in the drip
// still arrive late).
func (a *Adversary) SetSlowDrip(d time.Duration) { a.slowDrip = d }

// Fork returns the private fork blocks, oldest first.
func (a *Adversary) Fork() []*btc.Block { return a.fork }

// MinePrivateFork mines length blocks starting from the block with the
// given hash (which must be in the adversary's tree), without relaying
// them. Transactions can be injected into the first fork block to model a
// "corrupting transaction in a block b' on a forked chain" (Lemma IV.2).
func (a *Adversary) MinePrivateFork(from btc.Hash, length int, inject []*btc.Transaction) error {
	start := a.Node.tree.Get(from)
	if start == nil {
		return fmt.Errorf("btcnode: fork base %s unknown", from)
	}
	a.fork = nil
	parent := start
	for i := 0; i < length; i++ {
		blk, err := a.miner.BuildBlockOn(parent, 0)
		if err != nil {
			return err
		}
		if i == 0 && len(inject) > 0 {
			// Re-assemble rather than mutate: a sealed block's TxIDs are
			// memoized, so amending its transaction list requires a fresh
			// Block value before resealing the header.
			blk = &btc.Block{
				Header:       blk.Header,
				Transactions: append(blk.Transactions[:len(blk.Transactions):len(blk.Transactions)], inject...),
			}
			blk.Header.MerkleRoot = blk.MerkleRoot()
			if err := btc.MineHeader(&blk.Header); err != nil {
				return err
			}
		}
		// Insert into the adversary's private view without relaying.
		node, err := a.Node.tree.Insert(blk.Header)
		if err != nil {
			return fmt.Errorf("btcnode: private fork insert: %w", err)
		}
		a.Node.blocks[blk.BlockHash()] = blk
		a.fork = append(a.fork, blk)
		parent = node
	}
	return nil
}

// corruptBlockCopy returns a copy of blk with a junk transaction appended
// but the sealed header untouched: the block hash still matches the
// announced header while the merkle root no longer covers the transactions.
func corruptBlockCopy(blk *btc.Block) *btc.Block {
	junk := &btc.Transaction{
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{Vout: 0xFFFF_FFFE}}},
		Outputs: []btc.TxOut{{Value: 1, PkScript: btc.PayToPubKeyHashScript([20]byte{0xBA, 0xD0})}},
	}
	return &btc.Block{
		Header:       blk.Header,
		Transactions: append(blk.Transactions[:len(blk.Transactions):len(blk.Transactions)], junk),
	}
}

// Receive implements simnet.Endpoint with adversarial request handling.
func (a *Adversary) Receive(from simnet.NodeID, msg any) {
	if a.slowDrip > 0 {
		a.Node.net.Scheduler().After(a.slowDrip, func() { a.handle(from, msg) })
		return
	}
	a.handle(from, msg)
}

// handle applies the active adversarial behaviors to one message.
func (a *Adversary) handle(from simnet.NodeID, msg any) {
	if a.silent {
		return
	}
	if a.withholdData {
		if _, ok := msg.(MsgGetData); ok {
			return
		}
	}
	if a.frozen {
		switch msg.(type) {
		case MsgHeaders, MsgInvBlock, MsgBlock, MsgInvTx, MsgTx, MsgAddr:
			return
		}
	}
	if a.corruptBlocks {
		if m, ok := msg.(MsgGetData); ok {
			var missing []btc.Hash
			for _, h := range m.BlockHashes {
				if blk := a.Node.blocks[h]; blk != nil {
					a.Node.net.Send(a.Node.ID, from, MsgBlock{Block: corruptBlockCopy(blk)})
				} else {
					missing = append(missing, h)
				}
			}
			if len(missing) > 0 {
				a.Node.net.Send(a.Node.ID, from, MsgNotFound{Hashes: missing})
			}
			return
		}
	}
	if !a.serveForkOnly {
		a.Node.Receive(from, msg)
		return
	}
	// Fork-only mode: answer header and block requests from the fork,
	// pretend to know nothing else.
	switch m := msg.(type) {
	case MsgGetHeaders:
		known := make(map[btc.Hash]bool)
		for _, h := range m.Locator {
			known[h] = true
		}
		var out []btc.BlockHeader
		for _, blk := range a.fork {
			if !known[blk.BlockHash()] {
				out = append(out, blk.Header)
			}
		}
		a.Node.net.Send(a.Node.ID, from, MsgHeaders{Headers: out})
	case MsgGetData:
		forkByHash := make(map[btc.Hash]*btc.Block, len(a.fork))
		for _, blk := range a.fork {
			forkByHash[blk.BlockHash()] = blk
		}
		var missing []btc.Hash
		for _, h := range m.BlockHashes {
			if blk := forkByHash[h]; blk != nil {
				a.Node.net.Send(a.Node.ID, from, MsgBlock{Block: blk})
			} else {
				missing = append(missing, h)
			}
		}
		if len(missing) > 0 {
			a.Node.net.Send(a.Node.ID, from, MsgNotFound{Hashes: missing})
		}
	case MsgGetAddr:
		a.Node.net.Send(a.Node.ID, from, MsgAddr{Addrs: a.Node.knownAddrs})
	default:
		// Swallow everything else.
	}
}

// ForkTip returns the chain node of the fork's last block, or nil.
func (a *Adversary) ForkTip() *chain.Node {
	if len(a.fork) == 0 {
		return nil
	}
	return a.Node.tree.Get(a.fork[len(a.fork)-1].BlockHash())
}
