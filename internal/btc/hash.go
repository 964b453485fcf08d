// Package btc implements the Bitcoin primitives the integration depends on:
// double-SHA256 hashing, the variable-length wire encoding, transactions,
// blocks and block headers, Merkle trees, compact-bits difficulty targets,
// base58check and bech32 addresses, and a simplified script engine covering
// the P2PKH and P2WPKH spend paths.
package btc

import (
	"crypto/sha256"
	"encoding/hex"
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

// Less reports whether h sorts before o in display order: the byte-reversed
// hashes compared as big-endian numbers, so "the lower hash" means the
// smaller number an explorer shows. Definition II.1's tip tie-break and the
// canonical get_utxos order both use it.
func (h Hash) Less(o Hash) bool {
	for i := HashSize - 1; i >= 0; i-- {
		if h[i] != o[i] {
			return h[i] < o[i]
		}
	}
	return false
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
