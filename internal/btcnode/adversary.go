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
// (a) build a private fork off any block and (b) take on one Behavior at a
// time, such as serving only the fork ("fork feeding") or nothing at all
// ("eclipse"), the behaviors used in the Lemma IV.2 and IV.3 experiments.
type Adversary struct {
	Node  *Node
	miner *Miner
	// fork holds the privately mined chain, oldest first.
	fork     []*btc.Block
	behavior Behavior
}

// Behavior is how an adversarial node treats the messages it receives.
type Behavior uint8

const (
	// Honest handles every message as a regular node does.
	Honest Behavior = iota
	// Silent ignores every message (eclipse).
	Silent
	// ServeForkOnly answers header and block requests exclusively from the
	// private fork and swallows everything else.
	ServeForkOnly
	// WithholdData answers header requests normally but drops getdata:
	// peers learn of blocks they can never download.
	WithholdData
	// CorruptBlocks serves every block requested via getdata with a junk
	// transaction appended after the header was sealed, so the merkle root
	// check on the receiving side must reject it.
	CorruptBlocks
	// Frozen drops all announcements (headers/inv/blocks/tx/addr pushes)
	// while still answering explicit requests: the node's view of the chain
	// freezes and it serves an ever-staler one.
	Frozen
	// SlowDrip is a slowloris peer: every message is handled, and therefore
	// answered, only slowDripDelay of virtual time after it arrives. It never
	// stops responding, but is too slow for any request deadline, which is
	// what per-request timeouts and peer scoring must catch.
	SlowDrip
)

// slowDripDelay is how late a SlowDrip node handles each message.
const slowDripDelay = 30 * time.Second

// NewAdversary wraps a node with adversarial behaviors. The node's script
// validation is disabled: the attacker may include invalid transactions in
// its blocks ("the Bitcoin canister does not verify that the spending
// conditions of transactions are satisfied", §IV-A).
func NewAdversary(id simnet.NodeID, net *simnet.Network, params *btc.Params) *Adversary {
	n := NewNode(id, net, params)
	n.validateScripts = false
	a := &Adversary{Node: n}
	a.miner = NewMiner(n, btc.PayToPubKeyHashScript([20]byte{0xEE}))
	// The adversary intercepts its node's message handling.
	net.Register(id, a)
	return a
}

// Behave switches the node to behavior b. Messages already delayed by
// SlowDrip are handled under whichever behavior holds when they fall due.
func (a *Adversary) Behave(b Behavior) { a.behavior = b }

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
	if a.behavior == SlowDrip {
		a.Node.net.Scheduler().After(slowDripDelay, func() { a.handle(from, msg) })
		return
	}
	a.handle(from, msg)
}

// handle treats one message according to the node's behavior.
func (a *Adversary) handle(from simnet.NodeID, msg any) {
	switch a.behavior {
	case Silent:
		return
	case WithholdData:
		if _, ok := msg.(MsgGetData); ok {
			return
		}
	case Frozen:
		switch msg.(type) {
		case MsgHeaders, MsgInvBlock, MsgBlock, MsgInvTx, MsgTx, MsgAddr:
			return
		}
	case CorruptBlocks:
		if m, ok := msg.(MsgGetData); ok {
			a.serveData(from, m, func(h btc.Hash) *btc.Block {
				if blk := a.Node.blocks[h]; blk != nil {
					return corruptBlockCopy(blk)
				}
				return nil
			})
			return
		}
	case ServeForkOnly:
		a.serveFork(from, msg)
		return
	}
	a.Node.Receive(from, msg)
}

// serveFork answers header and block requests from the fork and pretends
// to know nothing else.
func (a *Adversary) serveFork(from simnet.NodeID, msg any) {
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
		a.serveData(from, m, func(h btc.Hash) *btc.Block { return forkByHash[h] })
	case MsgGetAddr:
		a.Node.net.Send(a.Node.ID, from, MsgAddr{Addrs: a.Node.knownAddrs})
	default:
		// Swallow everything else.
	}
}

// serveData answers a getdata with the block lookup returns for each hash,
// then one not-found for the hashes it returns nil for.
func (a *Adversary) serveData(from simnet.NodeID, m MsgGetData, lookup func(btc.Hash) *btc.Block) {
	var missing []btc.Hash
	for _, h := range m.BlockHashes {
		if blk := lookup(h); blk != nil {
			a.Node.net.Send(a.Node.ID, from, MsgBlock{Block: blk})
		} else {
			missing = append(missing, h)
		}
	}
	if len(missing) > 0 {
		a.Node.net.Send(a.Node.ID, from, MsgNotFound{Hashes: missing})
	}
}

// ForkTip returns the chain node of the fork's last block, or nil.
func (a *Adversary) ForkTip() *chain.Node {
	if len(a.fork) == 0 {
		return nil
	}
	return a.Node.tree.Get(a.fork[len(a.fork)-1].BlockHash())
}
