package btc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/big"
	"slices"
	"sync"
	"time"
)

// BlockHeaderSize is the wire size of a Bitcoin block header.
const BlockHeaderSize = 80

// BlockHeader is the 80-byte Bitcoin block header.
type BlockHeader struct {
	Version    uint32
	PrevBlock  Hash // hashPrevBlock: hash of the predecessor header
	MerkleRoot Hash
	Timestamp  uint32 // seconds since the Unix epoch
	Bits       uint32 // compact encoding of the difficulty target
	Nonce      uint32
}

// AppendTo appends the header's 80-byte wire encoding to b.
func (h *BlockHeader) AppendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, h.Version)
	b = append(b, h.PrevBlock[:]...)
	b = append(b, h.MerkleRoot[:]...)
	b = binary.LittleEndian.AppendUint32(b, h.Timestamp)
	b = binary.LittleEndian.AppendUint32(b, h.Bits)
	return binary.LittleEndian.AppendUint32(b, h.Nonce)
}

// BlockHash returns H(header), the block's identifier.
func (h *BlockHeader) BlockHash() Hash {
	var buf [BlockHeaderSize]byte
	return DoubleSHA256(h.AppendTo(buf[:0]))
}

// ParseBlockHeader decodes a header from exactly 80 bytes.
func ParseBlockHeader(data []byte) (BlockHeader, error) {
	if len(data) != BlockHeaderSize {
		return BlockHeader{}, fmt.Errorf("btc: block header must be %d bytes, got %d", BlockHeaderSize, len(data))
	}
	return BlockHeader{
		Version:    binary.LittleEndian.Uint32(data[0:4]),
		PrevBlock:  Hash(data[4:36]),
		MerkleRoot: Hash(data[36:68]),
		Timestamp:  binary.LittleEndian.Uint32(data[68:72]),
		Bits:       binary.LittleEndian.Uint32(data[72:76]),
		Nonce:      binary.LittleEndian.Uint32(data[76:80]),
	}, nil
}

// Block is a batch of transactions referencing a predecessor block.
type Block struct {
	Header       BlockHeader
	Transactions []*Transaction

	// txids memoizes TxIDs. A block's transactions are immutable once the
	// header (whose Merkle root commits to them) is assembled, so the IDs
	// are computed at most once per block instead of once per consumer —
	// Merkle validation, delta building, and stable ingestion all share one
	// table. Sealed blocks flow to concurrent consumers (query-fleet
	// replicas, the parallel ingest pipeline's workers), so the memo is
	// guarded by a sync.Once; the value is identical no matter which
	// goroutine wins.
	txidsOnce sync.Once
	txids     []Hash

	// merkle memoizes MerkleRoot the same way: validation recomputes the
	// root the pipeline's prepare stage already derived, and both must pay
	// the tree hashing at most once per block.
	merkleOnce sync.Once
	merkle     Hash

	// wire is the encoding a parsed block was decoded from and wireHeader
	// the header it carries; both are unset on a block built in memory. The
	// parser only accepts what AppendTo writes, so while Header still equals
	// wireHeader, wire is the block's encoding.
	wire       []byte
	wireHeader BlockHeader
}

// TxIDs returns the memoized transaction IDs, in block order. The first
// call serializes and double-hashes every transaction; later calls are
// free. Safe for concurrent use on a sealed block; callers must not mutate
// Transactions after the block is shared.
func (b *Block) TxIDs() []Hash {
	b.txidsOnce.Do(func() {
		if len(b.Transactions) == 0 {
			return
		}
		ids := make([]Hash, len(b.Transactions))
		for i, tx := range b.Transactions {
			ids[i] = tx.TxID()
		}
		b.txids = ids
	})
	return b.txids
}

// sealTxIDs installs precomputed transaction IDs (the zero-copy parser
// hashes them straight off the wire spans). A racing TxIDs computation
// yields the identical table, so whichever Do wins is correct.
func (b *Block) sealTxIDs(ids []Hash) {
	b.txidsOnce.Do(func() { b.txids = ids })
}

// BlockHash returns the hash of the block's header.
func (b *Block) BlockHash() Hash { return b.Header.BlockHash() }

// AppendTo appends the block's wire encoding to b.
func (b *Block) AppendTo(buf []byte) []byte {
	buf = b.Header.AppendTo(buf)
	buf = AppendVarInt(buf, uint64(len(b.Transactions)))
	for _, tx := range b.Transactions {
		buf = tx.AppendTo(buf)
	}
	return buf
}

// Bytes returns the wire encoding. A parsed block whose header is unchanged
// returns the bytes it was parsed from, shared: the caller must not modify
// them. Any other block is encoded afresh into a buffer of its exact size.
func (b *Block) Bytes() []byte {
	if b.wire != nil && b.Header == b.wireHeader {
		return b.wire
	}
	return b.AppendTo(make([]byte, 0, b.SerializedSize()))
}

// SerializedSize returns the byte length of the wire encoding.
func (b *Block) SerializedSize() int {
	n := BlockHeaderSize + VarIntSize(uint64(len(b.Transactions)))
	for _, tx := range b.Transactions {
		n += tx.SerializedSize()
	}
	return n
}

// maxBlockTxs bounds decoder allocation.
const maxBlockTxs = 1 << 20

// ParseBlock decodes a block from bytes, rejecting trailing data. It is
// ParseBlockFast over a private copy: the result shares no memory with data.
func ParseBlock(data []byte) (*Block, error) {
	return ParseBlockFast(bytes.Clone(data))
}

// MerkleRoot computes the Merkle tree root over the block's transaction IDs
// using Bitcoin's duplicate-last-node rule for odd levels. Memoized; safe
// for concurrent use on a sealed block.
func (b *Block) MerkleRoot() Hash {
	b.merkleOnce.Do(func() { b.merkle = MerkleRootFromHashes(b.TxIDs()) })
	return b.merkle
}

// MerkleRootFromHashes computes the Merkle root of a hash list. Each level is
// written over the front of the one below it — node i/2 is stored only after
// nodes i and i+1 are hashed — so the copy of the leaves is the one
// allocation.
func MerkleRootFromHashes(hashes []Hash) Hash {
	if len(hashes) == 0 {
		return ZeroHash
	}
	level := slices.Clone(hashes)
	for n := len(level); n > 1; n = (n + 1) / 2 {
		for i := 0; i < n; i += 2 {
			j := min(i+1, n-1) // an odd level pairs its last node with itself
			level[i/2] = hashPair(level[i], level[j])
		}
	}
	return level[0]
}

// MerkleProof is an inclusion proof for one leaf of a Merkle tree.
type MerkleProof struct {
	Index    int
	Siblings []Hash
}

// BuildMerkleProof constructs a proof that hashes[index] is included in the
// tree rooted at MerkleRootFromHashes(hashes).
func BuildMerkleProof(hashes []Hash, index int) (*MerkleProof, error) {
	if index < 0 || index >= len(hashes) {
		return nil, fmt.Errorf("btc: merkle index %d out of range [0,%d)", index, len(hashes))
	}
	proof := &MerkleProof{Index: index}
	level := make([]Hash, len(hashes))
	copy(level, hashes)
	pos := index
	for len(level) > 1 {
		if len(level)%2 == 1 {
			level = append(level, level[len(level)-1])
		}
		sibling := pos ^ 1
		proof.Siblings = append(proof.Siblings, level[sibling])
		next := make([]Hash, 0, len(level)/2)
		for i := 0; i < len(level); i += 2 {
			next = append(next, hashPair(level[i], level[i+1]))
		}
		level = next
		pos /= 2
	}
	return proof, nil
}

// Verify checks the proof against a leaf hash and expected root.
func (p *MerkleProof) Verify(leaf, root Hash) bool {
	acc := leaf
	pos := p.Index
	for _, sib := range p.Siblings {
		if pos%2 == 0 {
			acc = hashPair(acc, sib)
		} else {
			acc = hashPair(sib, acc)
		}
		pos /= 2
	}
	return acc == root
}

// --- Compact-bits difficulty targets ---

// CompactToBig converts the 32-bit compact ("Bits") representation to the
// full 256-bit target, as Bitcoin consensus does.
func CompactToBig(compact uint32) *big.Int {
	mantissa := compact & 0x007fffff
	exponent := uint(compact >> 24)
	negative := compact&0x00800000 != 0
	var target *big.Int
	if exponent <= 3 {
		target = big.NewInt(int64(mantissa >> (8 * (3 - exponent))))
	} else {
		target = big.NewInt(int64(mantissa))
		target.Lsh(target, 8*(exponent-3))
	}
	if negative {
		target.Neg(target)
	}
	return target
}

// BigToCompact converts a 256-bit target to compact representation.
func BigToCompact(target *big.Int) uint32 {
	if target.Sign() == 0 {
		return 0
	}
	abs := new(big.Int).Abs(target)
	exponent := uint(len(abs.Bytes()))
	var mantissa uint32
	if exponent <= 3 {
		mantissa = uint32(abs.Int64() << (8 * (3 - exponent)))
	} else {
		shifted := new(big.Int).Rsh(abs, 8*(exponent-3))
		mantissa = uint32(shifted.Int64())
	}
	if mantissa&0x00800000 != 0 {
		mantissa >>= 8
		exponent++
	}
	compact := uint32(exponent<<24) | mantissa
	if target.Sign() < 0 {
		compact |= 0x00800000
	}
	return compact
}

// HashMeetsTarget reports whether the block hash, interpreted as a 256-bit
// big-endian number (after byte reversal from internal order), is at most
// the target encoded in bits.
func HashMeetsTarget(h Hash, bits uint32) bool {
	target := CompactToBig(bits)
	if target.Sign() <= 0 {
		return false
	}
	var be [HashSize]byte
	for i := 0; i < HashSize; i++ {
		be[i] = h[HashSize-1-i]
	}
	val := new(big.Int).SetBytes(be[:])
	return val.Cmp(target) <= 0
}

// maxNonceAttempts bounds MineHeader. The simulation's targets admit a hash
// within a handful of attempts, so running out indicates a bug.
const maxNonceAttempts = 1 << 24

// MineHeader is the proof-of-work search: it tries nonces ascending from 0
// and leaves in h.Nonce the first whose block hash meets the target in
// h.Bits. Every miner in the repository — simulated node, adversary,
// workload generator, test forge — seals its headers here, so equal headers
// get equal nonces.
func MineHeader(h *BlockHeader) error {
	for nonce := uint32(0); nonce < maxNonceAttempts; nonce++ {
		h.Nonce = nonce
		if HashMeetsTarget(h.BlockHash(), h.Bits) {
			return nil
		}
	}
	return fmt.Errorf("btc: proof-of-work search exhausted after %d nonces (bits %#x)", maxNonceAttempts, h.Bits)
}

// WorkForBits returns the expected hash work to find a block at the given
// target: work = 2^256 / (target + 1). This is the w(b) function of §II-B.
func WorkForBits(bits uint32) *big.Int {
	target := CompactToBig(bits)
	if target.Sign() <= 0 {
		return new(big.Int)
	}
	num := new(big.Int).Lsh(big.NewInt(1), 256)
	den := new(big.Int).Add(target, big.NewInt(1))
	return num.Div(num, den)
}

// --- Header timestamp validation ---

// MaxFutureBlockTime is the maximum allowed clock skew into the future for a
// block timestamp (Bitcoin: 2 hours).
const MaxFutureBlockTime = 2 * time.Hour

// MedianTimePast computes the median of the last up-to-11 timestamps, the
// lower bound Bitcoin consensus places on a new block's timestamp.
func MedianTimePast(timestamps []uint32) uint32 {
	if len(timestamps) == 0 {
		return 0
	}
	n := len(timestamps)
	if n > 11 {
		timestamps = timestamps[n-11:]
		n = 11
	}
	sorted := make([]uint32, n)
	copy(sorted, timestamps)
	for i := 1; i < n; i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[n/2]
}

// ValidateTimestamp checks a header timestamp against median-time-past and
// the future-skew bound, the "valid block timestamp" check of §III-B.
func ValidateTimestamp(ts uint32, mtp uint32, now time.Time) error {
	if ts <= mtp {
		return fmt.Errorf("btc: timestamp %d not after median time past %d", ts, mtp)
	}
	limit := now.Add(MaxFutureBlockTime).Unix()
	if int64(ts) > limit {
		return fmt.Errorf("btc: timestamp %d too far in the future (limit %d)", ts, limit)
	}
	return nil
}
