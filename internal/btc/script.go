package btc

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"icbtc/internal/secp256k1"
)

// This file implements the subset of Bitcoin Script the integration uses:
// standard P2PKH locking/unlocking scripts and P2WPKH witness programs.
// The Bitcoin canister deliberately does NOT validate spend conditions
// (§III-C: "the validity of the transactions is not verified"); full script
// execution lives in the simulated Bitcoin nodes (internal/btcnode), which
// play the role of the mining/validating network the paper relies on.

// Script opcodes (only those used by standard output scripts).
const (
	opDup         = 0x76
	opHash160     = 0xa9
	opEqualVerify = 0x88
	opCheckSig    = 0xac
	op0           = 0x00
	opData20      = 0x14
)

// PayToPubKeyHashScript builds the canonical P2PKH locking script:
// OP_DUP OP_HASH160 <20-byte hash> OP_EQUALVERIFY OP_CHECKSIG.
func PayToPubKeyHashScript(hash [20]byte) []byte {
	script := make([]byte, 0, 25)
	script = append(script, opDup, opHash160, opData20)
	script = append(script, hash[:]...)
	return append(script, opEqualVerify, opCheckSig)
}

// PayToWitnessPubKeyHashScript builds the P2WPKH program: OP_0 <20-byte hash>.
func PayToWitnessPubKeyHashScript(hash [20]byte) []byte {
	script := make([]byte, 0, 22)
	script = append(script, op0, opData20)
	return append(script, hash[:]...)
}

// PayToAddrScript returns the locking script for an address.
func PayToAddrScript(addr Address) []byte {
	if addr.IsWitness() {
		return PayToWitnessPubKeyHashScript(addr.Hash160())
	}
	return PayToPubKeyHashScript(addr.Hash160())
}

// ExtractAddress recovers the address a standard locking script pays to.
// It returns false for non-standard scripts, which the UTXO index files
// under a synthetic "script hash" bucket.
func ExtractAddress(script []byte, network Network) (Address, bool) {
	switch {
	case len(script) == 25 && script[0] == opDup && script[1] == opHash160 &&
		script[2] == opData20 && script[23] == opEqualVerify && script[24] == opCheckSig:
		var h [20]byte
		copy(h[:], script[3:23])
		return NewP2PKHAddress(h, network), true
	case len(script) == 22 && script[0] == op0 && script[1] == opData20:
		var h [20]byte
		copy(h[:], script[2:])
		return NewP2WPKHAddress(h, network), true
	default:
		return Address{}, false
	}
}

// ScriptID returns a stable bucket key for any locking script: the address
// string when standard, otherwise "script:" plus the script hash.
func ScriptID(script []byte, network Network) string {
	if addr, ok := ExtractAddress(script, network); ok {
		return addr.String()
	}
	sum := sha256.Sum256(script)
	return fmt.Sprintf("script:%x", sum[:8])
}

// SigHashAll is the only signature hash type the simulation supports.
const SigHashAll = 0x01

// SignatureHash computes the digest an input signature commits to. The scheme
// follows legacy Bitcoin sighash: the transaction is serialized with all
// input scripts blanked except the signed input, which carries the previous
// output's locking script, and the hash type is appended.
func SignatureHash(tx *Transaction, idx int, prevPkScript []byte) (Hash, error) {
	if idx < 0 || idx >= len(tx.Inputs) {
		return Hash{}, fmt.Errorf("btc: signature hash input %d out of range", idx)
	}
	cp := Transaction{
		Version:  tx.Version,
		Inputs:   make([]TxIn, len(tx.Inputs)),
		Outputs:  tx.Outputs,
		LockTime: tx.LockTime,
	}
	for i := range tx.Inputs {
		cp.Inputs[i] = TxIn{
			PreviousOutPoint: tx.Inputs[i].PreviousOutPoint,
			Sequence:         tx.Inputs[i].Sequence,
		}
		if i == idx {
			cp.Inputs[i].SignatureScript = prevPkScript
		}
	}
	buf := cp.AppendTo(make([]byte, 0, cp.SerializedSize()+4))
	buf = binary.LittleEndian.AppendUint32(buf, SigHashAll)
	return DoubleSHA256(buf), nil
}

// SignInput produces the unlocking script for input idx of tx spending a
// P2PKH output locked to key's public key hash.
func SignInput(tx *Transaction, idx int, prevPkScript []byte, key *secp256k1.PrivateKey) error {
	return SignInputWith(tx, idx, prevPkScript, key.PubKey().SerializeCompressed(), func(digest []byte) ([]byte, error) {
		sig, err := key.Sign(digest)
		if err != nil {
			return nil, err
		}
		return sig.SerializeDER(), nil
	})
}

// SignInputWith is SignInput for a key the caller does not hold: sign
// returns a DER signature over the input's SIGHASH_ALL digest that verifies
// under pubKey (SEC compressed). A canister passes its call context's
// SignWithECDSA and the subnet's threshold key.
func SignInputWith(tx *Transaction, idx int, prevPkScript, pubKey []byte, sign func(digest []byte) ([]byte, error)) error {
	digest, err := SignatureHash(tx, idx, prevPkScript)
	if err != nil {
		return err
	}
	der, err := sign(digest[:])
	if err != nil {
		return fmt.Errorf("btc: signing input %d: %w", idx, err)
	}
	tx.Inputs[idx].SignatureScript = BuildP2PKHUnlockScript(der, pubKey)
	return nil
}

// BuildP2PKHUnlockScript assembles <sig+hashtype> <pubkey> push operations.
func BuildP2PKHUnlockScript(derSig, pubKey []byte) []byte {
	sigPush := append(append([]byte{}, derSig...), SigHashAll)
	script := make([]byte, 0, len(sigPush)+len(pubKey)+2)
	script = append(script, byte(len(sigPush)))
	script = append(script, sigPush...)
	script = append(script, byte(len(pubKey)))
	return append(script, pubKey...)
}

// ErrScriptInvalid is returned when script verification fails.
var ErrScriptInvalid = errors.New("btc: script verification failed")

// VerifyInput checks that input idx of tx correctly spends an output locked
// by prevPkScript. Only standard P2PKH spends are supported; the simulated
// Bitcoin network uses this for transaction validation.
func VerifyInput(tx *Transaction, idx int, prevPkScript []byte) error {
	if idx < 0 || idx >= len(tx.Inputs) {
		return fmt.Errorf("btc: verify input %d out of range", idx)
	}
	sigScript := tx.Inputs[idx].SignatureScript
	sig, pubKey, err := parseP2PKHUnlockScript(sigScript)
	if err != nil {
		return err
	}
	// The public key must hash to the hash in the locking script.
	addr, ok := ExtractAddress(prevPkScript, Regtest)
	if !ok {
		return fmt.Errorf("%w: non-standard locking script", ErrScriptInvalid)
	}
	if Hash160(pubKey) != addr.Hash160() {
		return fmt.Errorf("%w: public key hash mismatch", ErrScriptInvalid)
	}
	parsedSig, err := secp256k1.ParseDERSignature(sig)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrScriptInvalid, err)
	}
	pk, err := secp256k1.ParsePubKey(pubKey)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrScriptInvalid, err)
	}
	digest, err := SignatureHash(tx, idx, prevPkScript)
	if err != nil {
		return err
	}
	if !parsedSig.Verify(digest[:], pk) {
		return fmt.Errorf("%w: ECDSA verification failed", ErrScriptInvalid)
	}
	return nil
}

// parseP2PKHUnlockScript splits <sig> <pubkey> pushes, returning the DER
// signature (hash type stripped) and the serialized public key.
func parseP2PKHUnlockScript(script []byte) (sig, pubKey []byte, err error) {
	if len(script) < 2 {
		return nil, nil, fmt.Errorf("%w: unlock script too short", ErrScriptInvalid)
	}
	sigLen := int(script[0])
	if sigLen < 9 || 1+sigLen+1 > len(script) {
		return nil, nil, fmt.Errorf("%w: bad signature push", ErrScriptInvalid)
	}
	sigWithType := script[1 : 1+sigLen]
	if sigWithType[len(sigWithType)-1] != SigHashAll {
		return nil, nil, fmt.Errorf("%w: unsupported sighash type", ErrScriptInvalid)
	}
	rest := script[1+sigLen:]
	pkLen := int(rest[0])
	if 1+pkLen != len(rest) {
		return nil, nil, fmt.Errorf("%w: bad pubkey push", ErrScriptInvalid)
	}
	return sigWithType[:len(sigWithType)-1], rest[1:], nil
}
