// Package ic implements the Internet Computer replica stack the paper's
// architecture runs on (§II-A): subnets of 3f+1 replicas, a round-based
// consensus simulation with ranked block makers and deterministic
// finalization, a message-routing layer delivering ingress and
// inter-canister calls in consensus order, and an execution layer running
// canisters deterministically with instruction metering.
//
// The consensus protocol is a structural simulation of Internet Computer
// Consensus [Camenisch et al., PODC 2022]: per round a random beacon ranks
// block makers; the rank-0 maker's proposal is notarized and finalized after
// the configured delays; finalized blocks are never rolled back. A Byzantine
// replica, one whose payload builder was replaced, injects arbitrary payloads
// when selected as block maker — exactly the capability the Lemma IV.3
// analysis grants the attacker.
package ic

import (
	"fmt"
	"time"
)

// CanisterID identifies a canister on a subnet.
type CanisterID string

// CallKind distinguishes replicated (update) from non-replicated (query)
// execution.
type CallKind int

// Call kinds.
const (
	KindUpdate CallKind = iota + 1
	KindQuery
)

// CallContext carries the environment of one canister execution.
type CallContext struct {
	// Meter charges instructions; execution cost and latency derive from it.
	Meter *Meter
	// Time is the deterministic block time of the execution.
	Time time.Time
	// Caller identifies the calling principal (client or canister).
	Caller string
	// Kind reports whether this is an update or a query execution.
	Kind CallKind
	// subnet gives canisters access to subnet services (threshold signing).
	subnet *Subnet
	// ownMeter backs Meter for contexts built by NewCallContext, so a fresh
	// metered context costs a single allocation.
	ownMeter Meter
}

// NewCallContext returns a metered context in one allocation: the meter is
// embedded in the context value rather than allocated separately. Intended
// for hot measurement loops (benchmarks, experiments) that build a fresh
// context per request.
func NewCallContext(kind CallKind, t time.Time) *CallContext {
	ctx := &CallContext{Time: t, Kind: kind}
	ctx.Meter = &ctx.ownMeter
	return ctx
}

// SignWithECDSA asks the subnet's threshold-ECDSA committee to sign a
// 32-byte digest under the subnet key. Only available in update calls, as
// on the real IC. The returned DER signature verifies under ECDSAPublicKey.
func (c *CallContext) SignWithECDSA(digest []byte) ([]byte, error) {
	if c.Kind != KindUpdate {
		return nil, fmt.Errorf("ic: sign_with_ecdsa is not available in queries")
	}
	if c.subnet == nil || c.subnet.committee == nil {
		return nil, fmt.Errorf("ic: subnet has no threshold key")
	}
	c.Meter.Charge(CostThresholdSignature, "sign_with_ecdsa")
	sig, err := c.subnet.committee.Sign(digest)
	if err != nil {
		return nil, fmt.Errorf("ic: threshold signing: %w", err)
	}
	return sig.SerializeDER(), nil
}

// ECDSAPublicKey returns the subnet's threshold-ECDSA public key in SEC
// compressed form (the key canisters derive Bitcoin addresses from).
func (c *CallContext) ECDSAPublicKey() []byte {
	if c.subnet == nil || c.subnet.committee == nil {
		return nil
	}
	return c.subnet.committee.PublicKey().SerializeCompressed()
}

// Call performs a same-subnet inter-canister call synchronously within the
// current execution (the simulation collapses the call-response round trip;
// cross-subnet latency is modeled at the subnet boundary instead).
func (c *CallContext) Call(target CanisterID, method string, arg any) (any, error) {
	if c.subnet == nil {
		return nil, fmt.Errorf("ic: no subnet in context")
	}
	can := c.subnet.canisters[target]
	if can == nil {
		return nil, fmt.Errorf("ic: canister %s not found", target)
	}
	c.Meter.Charge(CostInterCanisterCall, "call")
	switch c.Kind {
	case KindUpdate:
		return can.Update(c, method, arg)
	default:
		return can.Query(c, method, arg)
	}
}

// Canister is the unit of logic and state on a subnet. Implementations must
// be deterministic: all inputs arrive through the arguments and context.
type Canister interface {
	// Update handles a replicated call; state changes persist.
	Update(ctx *CallContext, method string, arg any) (any, error)
	// Query handles a non-replicated read-only call on one replica.
	Query(ctx *CallContext, method string, arg any) (any, error)
}

// Snapshotter is implemented by canisters whose complete state can be
// captured as one deterministic byte string (the stable-memory image the
// real IC persists across canister upgrades). Snapshots feed two scenarios:
// an upgrade reinstalls the same canister from its own snapshot
// (Subnet.UpgradeCanister), and fast-sync bootstraps a fresh replica from a
// peer's snapshot instead of replaying the chain.
type Snapshotter interface {
	// Snapshot serializes the canister's full state deterministically:
	// equal states yield equal bytes.
	Snapshot() ([]byte, error)
}

// PayloadProcessor is implemented by canisters that consume consensus
// payloads (the Bitcoin canister consumes Bitcoin adapter responses that
// block makers put into IC blocks).
type PayloadProcessor interface {
	// ProcessPayload handles one payload in a finalized block. Errors are
	// recorded but do not abort the block (mirroring the canister trapping
	// on bad input without halting the subnet).
	ProcessPayload(ctx *CallContext, payload any) error
}

// TimerHandler is implemented by canisters that schedule their own
// execution (§II-A: "canisters can schedule the execution of (parts of)
// their own code using timers"). OnTimer runs once per finalized block.
type TimerHandler interface {
	OnTimer(ctx *CallContext)
}
