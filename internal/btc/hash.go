// Package btc implements the Bitcoin primitives the integration depends on:
// double-SHA256 hashing, the variable-length wire encoding, transactions,
// blocks and block headers, Merkle trees, compact-bits difficulty targets,
// base58check and bech32 addresses, and a simplified script engine covering
// the P2PKH and P2WPKH spend paths.
package btc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// HashSize is the byte length of a Bitcoin hash.
const HashSize = 32

// Hash is a Bitcoin double-SHA256 hash. Following Bitcoin convention the
// bytes are stored in internal (little-endian) order and displayed reversed.
type Hash [HashSize]byte

// ZeroHash is the all-zero hash, used as the previous-block reference of the
// genesis block.
var ZeroHash Hash

// DoubleSHA256 computes SHA256(SHA256(data)), Bitcoin's block and transaction
// hash function H.
func DoubleSHA256(data []byte) Hash {
	first := sha256.Sum256(data)
	return Hash(sha256.Sum256(first[:]))
}

// hashPair is the Merkle node hash: DoubleSHA256 over a‖b, joined on the
// stack.
func hashPair(a, b Hash) Hash {
	var buf [2 * HashSize]byte
	copy(buf[:HashSize], a[:])
	copy(buf[HashSize:], b[:])
	return DoubleSHA256(buf[:])
}

// String renders the hash in display order (byte-reversed hex), matching
// Bitcoin block explorers.
func (h Hash) String() string {
	var rev [HashSize]byte
	for i := 0; i < HashSize; i++ {
		rev[i] = h[HashSize-1-i]
	}
	return hex.EncodeToString(rev[:])
}

// IsZero reports whether the hash is all zeros.
func (h Hash) IsZero() bool { return h == ZeroHash }

// NewHashFromString parses a display-order hex string.
func NewHashFromString(s string) (Hash, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return Hash{}, fmt.Errorf("btc: parsing hash: %w", err)
	}
	if len(raw) != HashSize {
		return Hash{}, fmt.Errorf("btc: hash must be %d bytes, got %d", HashSize, len(raw))
	}
	var h Hash
	for i := 0; i < HashSize; i++ {
		h[i] = raw[HashSize-1-i]
	}
	return h, nil
}

// Hash160 computes SHA256 followed by a truncated second SHA256.
//
// Substitution note: Bitcoin proper uses RIPEMD-160 for the outer hash;
// RIPEMD-160 is not in the Go standard library, so the outer hash here is the
// first 20 bytes of a second SHA-256. The construction preserves everything
// the architecture relies on — a 20-byte collision-resistant commitment to a
// public key.
func Hash160(data []byte) [20]byte {
	first := sha256.Sum256(data)
	second := sha256.Sum256(first[:])
	var out [20]byte
	copy(out[:], second[:20])
	return out
}
