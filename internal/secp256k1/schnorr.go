package secp256k1

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
)

// This file implements BIP340-style Schnorr signatures: x-only public keys,
// tagged hashes, and 64-byte (R.x || s) signatures. The IC exposes threshold
// Schnorr alongside threshold ECDSA; this is the single-signer reference the
// threshold protocol must agree with.

// taggedHash computes SHA256(SHA256(tag) || SHA256(tag) || msg) per BIP340.
func taggedHash(tag string, parts ...[]byte) [32]byte {
	th := sha256.Sum256([]byte(tag))
	h := sha256.New()
	h.Write(th[:])
	h.Write(th[:])
	for _, p := range parts {
		h.Write(p)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// SchnorrSignature is a BIP340 signature: the x coordinate of the nonce point
// and the scalar s.
type SchnorrSignature struct {
	RX *big.Int
	S  *big.Int
}

// Serialize returns the 64-byte BIP340 encoding.
func (s *SchnorrSignature) Serialize() []byte {
	out := make([]byte, 64)
	s.RX.FillBytes(out[:32])
	s.S.FillBytes(out[32:])
	return out
}

// ParseSchnorrSignature decodes a 64-byte BIP340 signature.
func ParseSchnorrSignature(data []byte) (*SchnorrSignature, error) {
	if len(data) != 64 {
		return nil, fmt.Errorf("secp256k1: schnorr signature must be 64 bytes, got %d", len(data))
	}
	return &SchnorrSignature{
		RX: new(big.Int).SetBytes(data[:32]),
		S:  new(big.Int).SetBytes(data[32:]),
	}, nil
}

// XOnlyPubKey returns the 32-byte x-only encoding of the public key.
func (p *PublicKey) XOnlyPubKey() []byte {
	out := make([]byte, 32)
	if !p.Infinity() {
		p.X.FillBytes(out)
	}
	return out
}

// evenKey returns a private scalar whose public point has even Y, negating d
// if necessary (BIP340 key preparation).
func evenKey(d *big.Int) (*big.Int, Point) {
	pt := ScalarBaseMult(d)
	if pt.Y.Bit(0) == 1 {
		d = new(big.Int).Sub(curveN, d)
		pt = ScalarBaseMult(d)
	}
	return d, pt
}

// SchnorrSign produces a deterministic BIP340-style signature over a 32-byte
// message. The aux randomness is derived from the key and message, making
// signing deterministic (sufficient for the simulation; BIP340 permits this).
func (k *PrivateKey) SchnorrSign(msg []byte) (*SchnorrSignature, error) {
	if len(msg) != 32 {
		return nil, fmt.Errorf("secp256k1: schnorr message must be 32 bytes, got %d", len(msg))
	}
	d, pub := evenKey(k.D)
	dBytes := make([]byte, 32)
	d.FillBytes(dBytes)
	pubX := make([]byte, 32)
	pub.X.FillBytes(pubX)

	nonceHash := taggedHash("BIP0340/nonce", dBytes, pubX, msg)
	kNonce := new(big.Int).SetBytes(nonceHash[:])
	kNonce.Mod(kNonce, curveN)
	if kNonce.Sign() == 0 {
		return nil, errors.New("secp256k1: schnorr nonce is zero")
	}
	kNonce, rPt := evenKey(kNonce)
	rx := make([]byte, 32)
	rPt.X.FillBytes(rx)

	e := SchnorrChallenge(rPt.X, pub.X, msg)
	s := new(big.Int).Mul(e, d)
	s.Add(s, kNonce)
	s.Mod(s, curveN)
	return &SchnorrSignature{RX: new(big.Int).Set(rPt.X), S: s}, nil
}

// SchnorrChallenge computes the BIP340 challenge e = H_tag(R.x || P.x || m)
// mod n. It is exported because the threshold Schnorr protocol must compute
// the identical challenge when assembling signature shares.
func SchnorrChallenge(rx, px *big.Int, msg []byte) *big.Int {
	rb := make([]byte, 32)
	rx.FillBytes(rb)
	pb := make([]byte, 32)
	px.FillBytes(pb)
	ch := taggedHash("BIP0340/challenge", rb, pb, msg)
	e := new(big.Int).SetBytes(ch[:])
	return e.Mod(e, curveN)
}

// SchnorrVerify reports whether sig is a valid BIP340 signature on msg under
// the x-only public key px.
func SchnorrVerify(sig *SchnorrSignature, msg []byte, px *big.Int) bool {
	if sig == nil || len(msg) != 32 {
		return false
	}
	if sig.RX.Sign() < 0 || sig.RX.Cmp(curveP) >= 0 {
		return false
	}
	if sig.S.Sign() < 0 || sig.S.Cmp(curveN) >= 0 {
		return false
	}
	py, err := liftX(new(big.Int).Set(px), false)
	if err != nil {
		return false
	}
	pub := Point{X: new(big.Int).Set(px), Y: py}
	e := SchnorrChallenge(sig.RX, px, msg)
	// R = s*G - e*P
	sg := ScalarBaseMult(sig.S)
	ep := ScalarMult(pub, e).Neg()
	r := Add(sg, ep)
	if r.Infinity() || r.Y.Bit(0) == 1 {
		return false
	}
	return r.X.Cmp(sig.RX) == 0
}
