package tecdsa

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"icbtc/internal/secp256k1"
)

// Committee is a t-of-n threshold signing committee. Each party holds a
// share of the long-lived private key; the key itself never exists in one
// place. The Committee type orchestrates the message flow of the protocol
// in-process; each party's local computation is confined to party methods,
// so the data-flow boundaries match a distributed deployment.
type Committee struct {
	n, t    int
	parties []*party
	pubKey  *secp256k1.PublicKey
	rng     io.Reader
}

// party holds one signer's private state.
type party struct {
	index    int
	keyShare Share
}

// NewCommittee runs dealerless distributed key generation among n parties
// with threshold t (any t+1 can sign; up to t shares reveal nothing): one
// joint sharing, whose secret is the key. For an IC subnet with n = 3f+1
// replicas, t = f.
func NewCommittee(n, t int, rng io.Reader) (*Committee, error) {
	if n <= 0 || t < 0 || n < 2*t+1 {
		return nil, fmt.Errorf("tecdsa: committee needs n >= 2t+1, got n=%d t=%d", n, t)
	}
	c := &Committee{n: n, t: t, rng: rng}
	shares, pub, err := c.jointSharing()
	if err != nil {
		return nil, err
	}
	if pub.Infinity() {
		return nil, errors.New("tecdsa: degenerate aggregate key")
	}
	c.pubKey = &secp256k1.PublicKey{Point: pub}
	c.parties = make([]*party, n)
	for i, share := range shares {
		c.parties[i] = &party{index: share.Index, keyShare: share}
	}
	return c, nil
}

// N returns the committee size.
func (c *Committee) N() int { return c.n }

// T returns the threshold (degree of the key sharing).
func (c *Committee) T() int { return c.t }

// PublicKey returns the committee's aggregate public key.
func (c *Committee) PublicKey() *secp256k1.PublicKey { return c.pubKey }

// jointSharing has every party deal a random value; the aggregate secret is
// the sum, and each party's aggregate share the sum of the shares dealt to it,
// every one verified against its dealer's Feldman commitment first. Returns
// the aggregate shares and the aggregate public point (secret·G) derived from
// the commitments.
func (c *Committee) jointSharing() ([]Share, secp256k1.Point, error) {
	order := secp256k1.N()
	sum := make([]*big.Int, c.n)
	for i := range sum {
		sum[i] = new(big.Int)
	}
	var sumCommit FeldmanCommitment
	for dealer := 0; dealer < c.n; dealer++ {
		secret, err := randScalar(c.rng)
		if err != nil {
			return nil, secp256k1.Point{}, err
		}
		shares, commit, err := ShareSecretVerifiable(secret, c.n, c.t, c.rng)
		if err != nil {
			return nil, secp256k1.Point{}, err
		}
		for i, s := range shares {
			if !VerifyShare(s, commit) {
				return nil, secp256k1.Point{}, fmt.Errorf("tecdsa: invalid dealing from %d", dealer)
			}
			sum[i].Add(sum[i], s.Value)
			sum[i].Mod(sum[i], order)
		}
		sumCommit = AddCommitments(sumCommit, commit)
	}
	out := make([]Share, c.n)
	for i := range out {
		out[i] = Share{Index: i + 1, Value: sum[i]}
	}
	return out, sumCommit.PublicPoint(), nil
}

// openProduct has each party publish the local product of its two shares;
// the product polynomial has degree 2t, so 2t+1 contributions reconstruct
// the product of the two shared secrets. (This "multiply then open" step is
// the passively-secure core of the Bar-Ilan–Beaver inversion.)
func (c *Committee) openProduct(a, b []Share) (*big.Int, error) {
	order := secp256k1.N()
	prodShares := make([]Share, c.n)
	for i := 0; i < c.n; i++ {
		v := new(big.Int).Mul(a[i].Value, b[i].Value)
		v.Mod(v, order)
		prodShares[i] = Share{Index: i + 1, Value: v}
	}
	return Reconstruct(prodShares, 2*c.t)
}

// Sign produces a standard low-S ECDSA signature over a 32-byte digest.
// The signing equation s = k⁻¹(z + r·x) is evaluated on shares:
//
//	s_i = w_i·z + r·(w_i · x_i)
//
// where w_i are degree-t shares of k⁻¹. The w·x term makes s_i a degree-2t
// sharing, reconstructed from 2t+1 < n contributions.
func (c *Committee) Sign(digest []byte) (*secp256k1.Signature, error) {
	if len(digest) != 32 {
		return nil, fmt.Errorf("tecdsa: digest must be 32 bytes, got %d", len(digest))
	}
	order := secp256k1.N()
	z := secp256k1.HashToScalar(digest)
	for attempt := 0; attempt < 8; attempt++ {
		// 1. Joint random nonce k (shared, never reconstructed) and R = k·G.
		kShares, rPoint, err := c.jointSharing()
		if err != nil {
			return nil, err
		}
		if rPoint.Infinity() {
			continue
		}
		r := new(big.Int).Mod(rPoint.X, order)
		if r.Sign() == 0 {
			continue
		}
		// 2. Random blinding a; open u = k·a; w_i = a_i·u⁻¹ are shares of k⁻¹.
		aShares, _, err := c.jointSharing()
		if err != nil {
			return nil, err
		}
		u, err := c.openProduct(kShares, aShares)
		if err != nil {
			return nil, err
		}
		if u.Sign() == 0 {
			continue
		}
		uInv := new(big.Int).ModInverse(u, order)
		// 3. Each party computes its signature share locally.
		sigShares := make([]Share, c.n)
		for i, p := range c.parties {
			w := new(big.Int).Mul(aShares[i].Value, uInv)
			w.Mod(w, order)
			term := new(big.Int).Mul(w, z) // w_i·z   (degree t)
			wx := new(big.Int).Mul(w, p.keyShare.Value)
			wx.Mod(wx, order)
			wx.Mul(wx, r) // r·w_i·x_i (degree 2t)
			term.Add(term, wx)
			term.Mod(term, order)
			sigShares[i] = Share{Index: p.index, Value: term}
		}
		s, err := Reconstruct(sigShares, 2*c.t)
		if err != nil {
			return nil, err
		}
		if s.Sign() == 0 {
			continue
		}
		sig := &secp256k1.Signature{R: r, S: s}
		sig.NormalizeS()
		if !sig.Verify(digest, c.pubKey) {
			return nil, errors.New("tecdsa: produced signature failed verification")
		}
		return sig, nil
	}
	return nil, errors.New("tecdsa: signing failed after retries")
}

// SignSchnorr produces a BIP340-style threshold Schnorr signature over a
// 32-byte message. Schnorr's linear equation s = k + e·x means signature
// shares are degree-t and t+1 parties suffice.
func (c *Committee) SignSchnorr(msg []byte) (*secp256k1.SchnorrSignature, error) {
	if len(msg) != 32 {
		return nil, fmt.Errorf("tecdsa: schnorr message must be 32 bytes, got %d", len(msg))
	}
	order := secp256k1.N()
	// BIP340 requires an even-Y public key; negate key shares virtually if
	// needed (x → n−x flips the point's Y parity).
	pub := c.pubKey.Point
	negateKey := pub.Y.Bit(0) == 1
	for attempt := 0; attempt < 8; attempt++ {
		kShares, rPoint, err := c.jointSharing()
		if err != nil {
			return nil, err
		}
		if rPoint.Infinity() {
			continue
		}
		negateNonce := rPoint.Y.Bit(0) == 1
		e := secp256k1.SchnorrChallenge(rPoint.X, pub.X, msg)
		sigShares := make([]Share, c.n)
		for i, p := range c.parties {
			k := new(big.Int).Set(kShares[i].Value)
			if negateNonce {
				k.Sub(order, k)
			}
			x := new(big.Int).Set(p.keyShare.Value)
			if negateKey {
				x.Sub(order, x)
			}
			v := new(big.Int).Mul(e, x)
			v.Add(v, k)
			v.Mod(v, order)
			sigShares[i] = Share{Index: p.index, Value: v}
		}
		s, err := Reconstruct(sigShares, c.t)
		if err != nil {
			return nil, err
		}
		sig := &secp256k1.SchnorrSignature{RX: new(big.Int).Set(rPoint.X), S: s}
		px := new(big.Int).SetBytes(c.pubKey.XOnlyPubKey())
		if !secp256k1.SchnorrVerify(sig, msg, px) {
			continue
		}
		return sig, nil
	}
	return nil, errors.New("tecdsa: schnorr signing failed after retries")
}

// KeyShareOf exposes a party's key share for tests that verify no single
// share reveals the key. It must never be used outside tests.
func (c *Committee) KeyShareOf(i int) Share {
	p := c.parties[i]
	return Share{Index: p.index, Value: new(big.Int).Set(p.keyShare.Value)}
}
