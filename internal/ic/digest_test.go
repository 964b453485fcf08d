package ic

import (
	"errors"
	"math/rand"
	"testing"

	"icbtc/internal/tecdsa"
)

// TestResponseDigestMapDeterminism is the regression test for the
// nondeterministic certification digest: hashing fmt's %#v rendering walked
// Go maps in randomized iteration order, so a map-valued result certified
// to a different digest per run. The canonical encoder must digest the same
// map-valued result identically no matter how (or in which order) the map
// was populated.
func TestResponseDigestMapDeterminism(t *testing.T) {
	mk := func(keys []string) map[string]uint64 {
		m := make(map[string]uint64)
		for i, k := range keys {
			m[k] = uint64(i * 11)
		}
		return m
	}
	a := mk([]string{"insert_outputs", "remove_inputs", "fetch_stable", "request_base"})
	b := mk([]string{"request_base", "fetch_stable", "remove_inputs", "insert_outputs"})
	b["insert_outputs"], b["remove_inputs"] = 0, 11
	b["fetch_stable"], b["request_base"] = 22, 33
	a["insert_outputs"], a["remove_inputs"] = 0, 11
	a["fetch_stable"], a["request_base"] = 22, 33

	first := ResponseDigest(a, nil)
	for i := 0; i < 64; i++ {
		if got := ResponseDigest(a, nil); got != first {
			t.Fatalf("digest of the same map changed between calls: %x vs %x", got, first)
		}
		if got := ResponseDigest(b, nil); got != first {
			t.Fatalf("digest depends on map insertion order: %x vs %x", got, first)
		}
	}
	// Different content must move the digest.
	b["insert_outputs"] = 999
	if ResponseDigest(b, nil) == first {
		t.Fatal("digest ignored a changed map value")
	}
	// Errors are part of the digest.
	if ResponseDigest(a, errors.New("boom")) == first {
		t.Fatal("digest ignored the error")
	}
}

// TestCertifyMapValuedResultTwice drives the full certification path twice
// over the same map-valued result: the committee signature produced for one
// rendering of the map must verify against an independently rebuilt (and
// differently ordered) rendering. With the old %#v digest this failed with
// overwhelming probability.
func TestCertifyMapValuedResultTwice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	committee, err := tecdsa.NewCommittee(4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := &Subnet{committee: committee}

	value := map[string]uint64{"a": 1, "b": 2, "c": 3, "d": 4}
	d1 := ResponseDigest(value, nil)
	sig, err := committee.SignSchnorr(d1[:])
	if err != nil {
		t.Fatal(err)
	}
	serialized := sig.Serialize()

	// Rebuild "the same" result as a client would after transport.
	rebuilt := map[string]uint64{"d": 4, "c": 3, "b": 2, "a": 1}
	for i := 0; i < 8; i++ {
		if !s.VerifyCertified(rebuilt, nil, serialized) {
			t.Fatalf("round %d: certification of a map-valued result did not verify", i)
		}
	}
	rebuilt["a"] = 99
	if s.VerifyCertified(rebuilt, nil, serialized) {
		t.Fatal("tampered map-valued result verified")
	}
}
