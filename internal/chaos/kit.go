package chaos

// kit.go holds what every fleet harness — this package, internal/difftest and
// queryfleet's own tests — needs exactly one definition of: the authority
// proxy, the frame mutator and the two lying replicas behind the fleet's fault
// seams (SetFrameFault, SetResponseFault), the committee a certifying fleet
// signs and audits with, and the client-side certification probe. The fleet
// itself carries none of this; nor does the subnet carry the image damage a
// crashed upgrade leaves behind (TornWrite, FlipBit).

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	"icbtc/internal/canister"
	"icbtc/internal/ic"
	"icbtc/internal/queryfleet"
	"icbtc/internal/simnet"
)

// Authority is a queryfleet.Authority that resolves the authoritative canister
// on every call, so an upgrade or snapshot restart that swaps the instance is
// transparent to the fleet. It is not a queryfleet.StreamSource: the harness
// installs fleet.Feed on each new instance itself.
type Authority func() *canister.BitcoinCanister

func (a Authority) Snapshot() ([]byte, error) { return a().Snapshot() }
func (a Authority) Query(ctx *ic.CallContext, method string, arg any) (any, error) {
	return a().Query(ctx, method, arg)
}
func (a Authority) TipHeight() int64    { return a().TipHeight() }
func (a Authority) AnchorHeight() int64 { return a().AnchorHeight() }

// MutateFrame damages one delivered frame in one of four seeded ways; which
// deliveries to damage is the caller's FrameFault's choice. The draw order
// (kind, then byte, then bit) is part of every harness's same-seed replay.
func MutateFrame(rng *rand.Rand, raw []byte) [][]byte {
	switch rng.Intn(4) {
	case 0: // bit flip: the checksum must catch it
		cp := bytes.Clone(raw)
		cp[rng.Intn(len(cp))] ^= 1 << uint(rng.Intn(8))
		return [][]byte{cp}
	case 1: // truncation: framing/checksum must catch it
		return [][]byte{raw[:len(raw)/2]}
	case 2: // duplication: strict sequencing must skip the copy
		return [][]byte{raw, raw}
	default: // drop: the next frame reveals the gap
		return nil
	}
}

// TornWrite is a crash mid-write: only a strict prefix of the image, cut at
// offset modulo its length, reached the pending slot.
func TornWrite(offset int) func(image []byte) []byte {
	return func(image []byte) []byte { return image[:offset%len(image)] }
}

// FlipBit is a media fault on a fully written image: the byte at offset
// modulo the image length has bit offset%8 flipped, in place.
func FlipBit(offset int) func(image []byte) []byte {
	return func(image []byte) []byte {
		image[offset%len(image)] ^= 1 << (offset % 8)
		return image
	}
}

// TamperLiar makes one replica claim a taller tip than the one its signature
// covers — caught by the audit's signature check.
func TamperLiar(replica int) queryfleet.ResponseFault {
	return func(i int, _ string, rq ic.RoutedQuery) ic.RoutedQuery {
		if i == replica && rq.Signature != nil {
			rq.TipHeight++
		}
		return rq
	}
}

// StaleReplayLiar makes one replica re-serve the first signed response it
// produced for each method forever — valid signatures over an aging tip, caught
// by the audit's generation bound once the chain moves past MaxLagBlocks.
func StaleReplayLiar(replica int) queryfleet.ResponseFault {
	var mu sync.Mutex
	first := make(map[string]ic.RoutedQuery)
	return func(i int, method string, rq ic.RoutedQuery) ic.RoutedQuery {
		if i != replica {
			return rq
		}
		mu.Lock()
		defer mu.Unlock()
		if stored, ok := first[method]; ok {
			return stored
		}
		if rq.Signature != nil {
			first[method] = rq
		}
		return rq
	}
}

// Committee builds what a certifying fleet is wired to: a 4-replica subnet
// (f = 1) on sched with threshold keys dealt from seed, the signer over its
// committee (Fleet.SetSigner) and the audit a client holding the subnet key
// runs over an envelope (Fleet.SetVerifier).
func Committee(sched *simnet.Scheduler, seed int64) (*ic.Subnet, queryfleet.SignFunc, queryfleet.VerifyFunc, error) {
	cfg := ic.DefaultConfig()
	cfg.N = 4
	cfg.Seed = seed
	subnet, err := ic.NewSubnet(sched, cfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("committee subnet: %w", err)
	}
	verify := func(env ic.CertifiedQuery, sig []byte) bool { return subnet.VerifyCertified(env, nil, sig) }
	return subnet, queryfleet.CommitteeSigner(subnet.Committee()), verify, nil
}

// CheckCertified is the probe a client holding only a routed response and the
// subnet key runs: the response is signed, the signature verifies over the
// rebuilt envelope, and stops verifying once the bound tip height is altered.
func CheckCertified(subnet *ic.Subnet, method string, rq ic.RoutedQuery) error {
	if rq.Signature == nil {
		return fmt.Errorf("fleet returned an uncertified %s response with signing enabled", method)
	}
	env := rq.Envelope(method)
	if !subnet.VerifyCertified(env, nil, rq.Signature) {
		return fmt.Errorf("certified %s did not verify under the subnet key", method)
	}
	env.TipHeight++
	if subnet.VerifyCertified(env, nil, rq.Signature) {
		return fmt.Errorf("%s certification verified after tampering with the bound tip height", method)
	}
	return nil
}
