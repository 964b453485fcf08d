// Package chain implements the block-tree machinery of §II-B and the novel
// stability concepts of §II-C of the paper: heights, the two depth functions
// d_c (confirmation counting) and d_w (cumulative hash work), δ-stability
// (Definition II.1), and current-chain selection. Each node carries its
// subtree's heaviest leaf and greatest height, so both depths, stability and
// the tip are reads of a few nodes rather than walks of a subtree.
//
// The package operates on block headers only; blocks themselves are handled
// by the adapter and the Bitcoin canister, which both embed a *Tree.
package chain

import (
	"errors"
	"fmt"
	"math/big"
	"sort"

	"icbtc/internal/btc"
)

// Node is a header in the block tree together with its tree metadata.
type Node struct {
	Header btc.BlockHeader
	Hash   btc.Hash
	Height int64
	// Work is w(b): the expected hash work for this block's target.
	Work *big.Int
	// CumulativeWork is the total work on the path from the root to this
	// node inclusive (used for chain selection shortcuts).
	CumulativeWork *big.Int

	// tsWindow caches the timestamps of the up-to-11 chain blocks ending at
	// this node, so median-time-past stays correct after the tree is
	// rerooted (ancestors below the new root are gone but their timestamps
	// must still anchor the MTP rule).
	tsWindow []uint32

	// aux is an opaque per-node attachment owned by the tree's embedder.
	// The Bitcoin canister stores a block's address-indexed UTXO delta here
	// so its read path can merge per-block effects without rescanning
	// blocks; because the attachment lives on the node, pruning a subtree
	// (Reroot) discards stale deltas together with their headers.
	aux any

	// best is the heaviest leaf of the subtree rooted here (most cumulative
	// work, ties to the lower hash, the Tip rule) and deepest the greatest
	// height in it. Insert keeps both current; every depth, stability and
	// tip question reads them instead of walking the subtree.
	best    *Node
	deepest int64

	parent   *Node
	children []*Node
}

// SetAux attaches an opaque per-node value (nil clears it).
func (n *Node) SetAux(v any) { n.aux = v }

// Aux returns the node's attachment, or nil.
func (n *Node) Aux() any { return n.aux }

// Parent returns the node's parent, or nil for the root.
func (n *Node) Parent() *Node { return n.parent }

// TimestampWindow returns a copy of the node's median-time-past window: the
// timestamps of the up-to-11 chain blocks ending at this node, including
// timestamps of ancestors a Reroot may since have pruned. Snapshots persist
// the root's window so a restored tree validates header timestamps exactly
// like the original (see NewTreeWithWindow).
func (n *Node) TimestampWindow() []uint32 {
	out := make([]uint32, len(n.tsWindow))
	copy(out, n.tsWindow)
	return out
}

// Children returns the successors succ(b). The returned slice is shared;
// callers must not mutate it.
func (n *Node) Children() []*Node { return n.children }

// Tree is a rooted tree of block headers. The root is typically the genesis
// header (in the adapter) or the current anchor (in the Bitcoin canister).
type Tree struct {
	root  *Node
	nodes map[btc.Hash]*Node
	// byHeight indexes nodes by height for stability queries.
	byHeight map[int64][]*Node
}

// Well-known errors returned by Insert.
var (
	ErrOrphan    = errors.New("chain: header's predecessor is not in the tree")
	ErrDuplicate = errors.New("chain: header already in the tree")
)

// NewTree creates a tree rooted at the given header with the given height.
func NewTree(root btc.BlockHeader, height int64) *Tree {
	return NewTreeWithWindow(root, height, nil)
}

// NewTreeWithWindow creates a tree rooted at the given header with an
// explicit median-time-past window (the up-to-11 timestamps of the chain
// ending at the root). A rerooted tree's root carries timestamps of
// ancestors that have been pruned; restoring a tree from a snapshot must
// reinstate that window or MTP validation of future headers would diverge
// from a never-restarted replica. An empty window falls back to the root's
// own timestamp (a genesis root).
func NewTreeWithWindow(root btc.BlockHeader, height int64, window []uint32) *Tree {
	work := btc.WorkForBits(root.Bits)
	ts := make([]uint32, 0, 11)
	if len(window) == 0 {
		ts = append(ts, root.Timestamp)
	} else {
		ts = append(ts, window...)
	}
	rn := &Node{
		Header:         root,
		Hash:           root.BlockHash(),
		Height:         height,
		Work:           work,
		CumulativeWork: new(big.Int).Set(work),
		tsWindow:       ts,
		deepest:        height,
	}
	rn.best = rn
	return &Tree{
		root:     rn,
		nodes:    map[btc.Hash]*Node{rn.Hash: rn},
		byHeight: map[int64][]*Node{height: {rn}},
	}
}

// Root returns the tree's root node.
func (t *Tree) Root() *Node { return t.root }

// Len returns the number of headers in the tree.
func (t *Tree) Len() int { return len(t.nodes) }

// MaxHeight returns the greatest height of any header in the tree.
func (t *Tree) MaxHeight() int64 { return t.root.deepest }

// Get returns the node for a header hash, or nil.
func (t *Tree) Get(h btc.Hash) *Node { return t.nodes[h] }

// Contains reports whether the tree holds the header with the given hash.
func (t *Tree) Contains(h btc.Hash) bool { return t.nodes[h] != nil }

// AtHeight returns all nodes at a height. The returned slice is shared.
func (t *Tree) AtHeight(h int64) []*Node { return t.byHeight[h] }

// Insert adds a header whose predecessor must already be in the tree.
func (t *Tree) Insert(header btc.BlockHeader) (*Node, error) {
	hash := header.BlockHash()
	if t.nodes[hash] != nil {
		return nil, fmt.Errorf("%w: %s", ErrDuplicate, hash)
	}
	parent := t.nodes[header.PrevBlock]
	if parent == nil {
		return nil, fmt.Errorf("%w: %s (prev %s)", ErrOrphan, hash, header.PrevBlock)
	}
	work := btc.WorkForBits(header.Bits)
	window := make([]uint32, 0, 11)
	if len(parent.tsWindow) >= 11 {
		window = append(window, parent.tsWindow[len(parent.tsWindow)-10:]...)
	} else {
		window = append(window, parent.tsWindow...)
	}
	window = append(window, header.Timestamp)
	n := &Node{
		Header:         header,
		Hash:           hash,
		Height:         parent.Height + 1,
		Work:           work,
		CumulativeWork: new(big.Int).Add(parent.CumulativeWork, work),
		tsWindow:       window,
		deepest:        parent.Height + 1,
		parent:         parent,
	}
	n.best = n
	parent.children = append(parent.children, n)
	t.nodes[hash] = n
	t.byHeight[n.Height] = append(t.byHeight[n.Height], n)
	// Each ancestor's pair is recomputed from all its children, not compared
	// with n alone: a parent that was a leaf is its own best until now, and a
	// zero-work header ties its parent's cumulative work. An ancestor whose
	// pair holds stops the walk, since nothing above it can change either.
	for a := parent; a != nil; a = a.parent {
		best, deepest := a.children[0].best, a.children[0].deepest
		for _, c := range a.children[1:] {
			if heavier(c.best, best) {
				best = c.best
			}
			deepest = max(deepest, c.deepest)
		}
		if best == a.best && deepest == a.deepest {
			break
		}
		a.best, a.deepest = best, deepest
	}
	return n, nil
}

// heavier reports whether leaf a beats leaf b under the Tip rule: more
// cumulative work, ties broken by the lower hash.
func heavier(a, b *Node) bool {
	c := a.CumulativeWork.Cmp(b.CumulativeWork)
	return c > 0 || c == 0 && a.Hash.Less(b.Hash)
}

// DepthByCount is d_c(b): the most blocks (counting b itself) on any path
// from b to a connected tip. This is the confirmation depth: a transaction
// in b has d_c(b) confirmations when b is on the chain.
func (t *Tree) DepthByCount(n *Node) int64 {
	if n == nil {
		return 0
	}
	return n.deepest - n.Height + 1
}

// DepthByWork is d_w(b): the most cumulative hash work on any path from b to
// a connected tip, including b's own work. The returned value is fresh.
func (t *Tree) DepthByWork(n *Node) *big.Int {
	if n == nil {
		return new(big.Int)
	}
	return depthByWork(new(big.Int), n)
}

// depthByWork sets z to d_w(n), the work from just below n to n's heaviest
// leaf, and returns z.
func depthByWork(z *big.Int, n *Node) *big.Int {
	z.Sub(n.best.CumulativeWork, n.CumulativeWork)
	return z.Add(z, n.Work)
}

// StabilityByCount returns the confirmation-based stability of node n: the
// largest δ for which n is δ-stable under d_c, which by Definition II.1 is
//
//	min( d_c(n), min over siblings b' at the same height of d_c(n)-d_c(b') ).
//
// The value is negative when a competing block at the same height is deeper,
// exactly as in Figure 3 of the paper.
func (t *Tree) StabilityByCount(n *Node) int64 {
	if n == nil {
		return 0
	}
	own := t.DepthByCount(n)
	stability := own
	for _, other := range t.byHeight[n.Height] {
		if other == n {
			continue
		}
		if gap := own - t.DepthByCount(other); gap < stability {
			stability = gap
		}
	}
	return stability
}

// IsCountStable reports whether n is δ-stable under d_c (Definition II.1).
func (t *Tree) IsCountStable(n *Node, delta int64) bool {
	if delta <= 0 {
		return true
	}
	return t.StabilityByCount(n) >= delta
}

// IsWorkStable reports whether n is difficulty-based δ-stable with respect
// to a reference work value, following §II-C's normalization d_w(b)/w(b*):
// d_w(n) ≥ δ·w(ref), and d_w(n) exceeds d_w of every same-height competitor
// by at least δ·w(ref). Without a positive reference the normalized depth
// reads 0, so only δ ≤ 0 holds.
func (t *Tree) IsWorkStable(n *Node, delta int64, refWork *big.Int) bool {
	if n == nil {
		return false
	}
	if refWork == nil || refWork.Sign() <= 0 {
		return delta <= 0
	}
	threshold := new(big.Int).Mul(big.NewInt(delta), refWork)
	own := depthByWork(new(big.Int), n)
	if own.Cmp(threshold) < 0 {
		return false
	}
	// own − d_w(other) ≥ threshold  ⇔  own − threshold ≥ d_w(other).
	bound := own.Sub(own, threshold)
	var other big.Int
	for _, o := range t.byHeight[n.Height] {
		if o != n && depthByWork(&other, o).Cmp(bound) > 0 {
			return false
		}
	}
	return true
}

// Tip returns the tip of the current blockchain: the leaf that maximizes
// cumulative work from the root (ties broken by lower hash for determinism,
// which every replica computes identically).
func (t *Tree) Tip() *Node { return t.root.best }

// CurrentChain returns the node path from the root to Tip(), inclusive.
func (t *Tree) CurrentChain() []*Node {
	tip := t.Tip()
	if tip == nil {
		return nil
	}
	var rev []*Node
	for n := tip; n != nil; n = n.parent {
		rev = append(rev, n)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// BFSFrom visits nodes in breadth-first order starting at start (inclusive),
// calling visit for each; visit returning false stops the walk. Children are
// visited in deterministic (hash-sorted) order so that every replica walks
// the tree identically — required for the adapter's Algorithm 1.
func (t *Tree) BFSFrom(start *Node, visit func(*Node) bool) {
	if start == nil {
		return
	}
	queue := []*Node{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if !visit(n) {
			return
		}
		kids := make([]*Node, len(n.children))
		copy(kids, n.children)
		sort.Slice(kids, func(i, j int) bool { return kids[i].Hash.Less(kids[j].Hash) })
		queue = append(queue, kids...)
	}
}

// Reroot rebases the tree at newRoot, discarding everything that is not a
// descendant of newRoot. Used by the Bitcoin canister when the anchor
// advances: competing headers below the new anchor are removed while the
// stable chain's header is kept as the new root. No surviving node's best or
// deepest changes: both range over the node's descendants, which all survive.
func (t *Tree) Reroot(newRoot *Node) error {
	if t.nodes[newRoot.Hash] != newRoot {
		return errors.New("chain: new root is not in the tree")
	}
	nodes := make(map[btc.Hash]*Node, len(t.nodes))
	byHeight := make(map[int64][]*Node, len(t.byHeight))
	var walk func(*Node)
	walk = func(n *Node) {
		nodes[n.Hash] = n
		byHeight[n.Height] = append(byHeight[n.Height], n)
		for _, c := range n.children {
			walk(c)
		}
	}
	newRoot.parent = nil
	walk(newRoot)
	t.root = newRoot
	t.nodes = nodes
	t.byHeight = byHeight
	return nil
}

// Tips returns all leaves of the tree.
func (t *Tree) Tips() []*Node {
	var tips []*Node
	for _, n := range t.nodes {
		if len(n.children) == 0 {
			tips = append(tips, n)
		}
	}
	sort.Slice(tips, func(i, j int) bool { return tips[i].Hash.Less(tips[j].Hash) })
	return tips
}
