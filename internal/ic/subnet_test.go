package ic

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"icbtc/internal/secp256k1"
	"icbtc/internal/simnet"
)

// counterCanister is a minimal stateful canister used by the tests.
type counterCanister struct {
	value   int
	timers  int
	history []string
}

func (c *counterCanister) Update(ctx *CallContext, method string, arg any) (any, error) {
	ctx.Meter.Charge(1000, "counter")
	c.history = append(c.history, method)
	switch method {
	case "inc":
		c.value += arg.(int)
		return c.value, nil
	case "fail":
		return nil, errors.New("boom")
	case "sign":
		digest := sha256.Sum256([]byte("payload"))
		return ctx.SignWithECDSA(digest[:])
	default:
		return nil, fmt.Errorf("no method %s", method)
	}
}

func (c *counterCanister) Query(ctx *CallContext, method string, arg any) (any, error) {
	ctx.Meter.Charge(500, "counter")
	switch method {
	case "get":
		return c.value, nil
	case "sign":
		digest := sha256.Sum256([]byte("payload"))
		return ctx.SignWithECDSA(digest[:])
	default:
		return nil, fmt.Errorf("no method %s", method)
	}
}

func (c *counterCanister) OnTimer(ctx *CallContext) { c.timers++ }

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.N = 4
	cfg.DisableThresholdKeys = true
	cfg.DegradedRoundProb = 0
	return cfg
}

func newTestSubnet(t *testing.T, cfg Config) (*simnet.Scheduler, *Subnet) {
	t.Helper()
	sched := simnet.NewScheduler(cfg.Seed)
	s, err := NewSubnet(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sched, s
}

func TestSubnetSizeValidation(t *testing.T) {
	sched := simnet.NewScheduler(1)
	for _, n := range []int{0, 2, 3, 5, 6, 8} {
		cfg := fastConfig()
		cfg.N = n
		if _, err := NewSubnet(sched, cfg); err == nil {
			t.Errorf("n=%d accepted", n)
		}
	}
	for _, n := range []int{1, 4, 7, 13} {
		cfg := fastConfig()
		cfg.N = n
		if _, err := NewSubnet(sched, cfg); err != nil {
			t.Errorf("n=%d rejected: %v", n, err)
		}
	}
}

func TestUpdateAndQuery(t *testing.T) {
	sched, s := newTestSubnet(t, fastConfig())
	c := &counterCanister{}
	s.InstallCanister("counter", c)
	s.Start()

	var updateRes, queryRes Result
	s.SubmitUpdate("counter", "inc", 5, "client", func(r Result) { updateRes = r })
	sched.RunFor(30 * time.Second)
	if updateRes.Err != nil {
		t.Fatalf("update: %v", updateRes.Err)
	}
	if updateRes.Value.(int) != 5 {
		t.Fatalf("value %v", updateRes.Value)
	}
	if !updateRes.Certified {
		t.Fatal("update response not certified")
	}
	if updateRes.Instructions == 0 {
		t.Fatal("no instructions charged")
	}

	s.Query("counter", "get", nil, "client", func(r Result) { queryRes = r })
	sched.RunFor(5 * time.Second)
	if queryRes.Err != nil || queryRes.Value.(int) != 5 {
		t.Fatalf("query %v %v", queryRes.Value, queryRes.Err)
	}
	if queryRes.Certified {
		t.Fatal("query response must not be certified")
	}
}

// TestReplicatedLatencyEnvelope holds every replicated call to the envelope
// the subnet's constants define: the inbound and the return XNet hop, the
// wait for the next round, finalization with its jitter and, in a degraded
// round, its extension, certification, and execution at updateRate.
func TestReplicatedLatencyEnvelope(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableThresholdKeys = true
	sched, s := newTestSubnet(t, cfg)
	s.InstallCanister("counter", &counterCanister{})
	s.Start()

	var results []Result
	for i := 0; i < 40; i++ {
		delay := time.Duration(i) * 700 * time.Millisecond
		sched.After(delay, func() {
			s.SubmitUpdate("counter", "inc", 1, "client", func(r Result) {
				results = append(results, r)
			})
		})
	}
	sched.RunFor(3 * time.Minute)
	if len(results) != 40 {
		t.Fatalf("got %d responses", len(results))
	}
	for i, r := range results {
		exec := time.Duration(float64(r.Instructions) / updateRate * float64(time.Second))
		lo := 2*xnetDelay + finalizeBase + certifyDelay + exec
		hi := lo + roundInterval + finalizeJitter + roundExtension
		if r.Latency < lo || r.Latency > hi {
			t.Errorf("response %d: latency %v outside [%v, %v]", i, r.Latency, lo, hi)
		}
	}
}

// TestQueryFasterThanUpdate holds every query to its round trip plus
// execution at queryRate; the round trip is split into two halves, so it can
// come back 1 ns short of queryRTTBase.
func TestQueryFasterThanUpdate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableThresholdKeys = true
	sched, s := newTestSubnet(t, cfg)
	s.InstallCanister("counter", &counterCanister{})
	s.Start()

	var qs []Result
	var u Result
	for i := 0; i < 20; i++ {
		s.Query("counter", "get", nil, "client", func(r Result) { qs = append(qs, r) })
	}
	s.SubmitUpdate("counter", "inc", 1, "client", func(r Result) { u = r })
	sched.RunFor(time.Minute)
	if len(qs) != 20 || u.Latency == 0 {
		t.Fatalf("missing responses: %d queries, update latency %v", len(qs), u.Latency)
	}
	for i, q := range qs {
		rtt := q.Latency - time.Duration(float64(q.Instructions)/queryRate*float64(time.Second))
		if rtt < queryRTTBase-time.Nanosecond || rtt >= queryRTTBase+queryRTTJitter {
			t.Errorf("query %d: latency %v less execution is %v, outside [%v, %v)", i, q.Latency, rtt, queryRTTBase, queryRTTBase+queryRTTJitter)
		}
		if q.Latency >= u.Latency {
			t.Errorf("query %d: %v not faster than update %v", i, q.Latency, u.Latency)
		}
	}
}

func TestUpdateErrorPropagates(t *testing.T) {
	sched, s := newTestSubnet(t, fastConfig())
	s.InstallCanister("counter", &counterCanister{})
	s.Start()
	var res Result
	s.SubmitUpdate("counter", "fail", nil, "client", func(r Result) { res = r })
	sched.RunFor(30 * time.Second)
	if res.Err == nil {
		t.Fatal("error not propagated")
	}
	// Unknown canister.
	var res2 Result
	s.SubmitUpdate("ghost", "x", nil, "client", func(r Result) { res2 = r })
	sched.RunFor(30 * time.Second)
	if res2.Err == nil {
		t.Fatal("unknown canister call succeeded")
	}
}

func TestTimersRunPerBlock(t *testing.T) {
	sched, s := newTestSubnet(t, fastConfig())
	c := &counterCanister{}
	s.InstallCanister("counter", c)
	s.Start()
	sched.RunFor(10 * time.Second)
	if c.timers < 5 {
		t.Fatalf("timers ran %d times", c.timers)
	}
}

func TestHaltStopsExecution(t *testing.T) {
	sched, s := newTestSubnet(t, fastConfig())
	c := &counterCanister{}
	s.InstallCanister("counter", c)
	s.Start()
	sched.RunFor(5 * time.Second)
	before := c.timers
	s.SetHalted(true)
	sched.RunFor(10 * time.Second)
	if c.timers != before {
		t.Fatal("execution continued while halted")
	}
	s.SetHalted(false)
	sched.RunFor(5 * time.Second)
	if c.timers <= before {
		t.Fatal("execution did not resume")
	}
}

func TestBlockMakerRotationIsDeterministicAndFair(t *testing.T) {
	cfg := fastConfig()
	cfg.N = 13
	sched, s := newTestSubnet(t, cfg)
	s.Start()
	sched.RunFor(2000 * time.Second)
	counts := make(map[int]int)
	for r := int64(0); r < s.round; r++ {
		counts[s.blockMakerFor(r).Index]++
	}
	total := int(s.round)
	if total < 1900 {
		t.Fatalf("only %d rounds ran", total)
	}
	// Every replica should make blocks; roughly uniform (within 3x).
	for i := 0; i < 13; i++ {
		c := counts[i]
		if c == 0 {
			t.Fatalf("replica %d never made a block", i)
		}
		if c < total/13/3 || c > total/13*3 {
			t.Fatalf("replica %d made %d of %d blocks (unfair)", i, c, total)
		}
	}
}

func TestDownReplicaSkippedAsMaker(t *testing.T) {
	cfg := fastConfig()
	sched, s := newTestSubnet(t, cfg)
	s.Replicas()[0].Down = true
	s.Replicas()[1].Down = true
	s.Start()
	sched.RunFor(100 * time.Second)
	made := make(map[int]bool)
	for r := int64(0); r < s.round; r++ {
		made[s.blockMakerFor(r).Index] = true
	}
	if made[0] || made[1] {
		t.Fatal("down replica made a block")
	}
	if !made[2] && !made[3] {
		t.Fatal("no live replica made blocks")
	}
}

// tickCanister appends its name to a shared log on every timer.
type tickCanister struct {
	name string
	log  *strings.Builder
}

func (c *tickCanister) Update(*CallContext, string, any) (any, error) { return nil, nil }
func (c *tickCanister) Query(*CallContext, string, any) (any, error)  { return nil, nil }
func (c *tickCanister) OnTimer(*CallContext)                          { c.log.WriteString(c.name) }

// TestBlockRunsCanistersInIDOrder: a block runs its canisters in sorted ID
// order, not in the map's, so every run of a seed executes the same way.
func TestBlockRunsCanistersInIDOrder(t *testing.T) {
	for run := 0; run < 20; run++ {
		sched, s := newTestSubnet(t, fastConfig())
		var log strings.Builder
		for _, id := range []CanisterID{"c", "a", "d", "b"} {
			s.InstallCanister(id, &tickCanister{name: string(id), log: &log})
		}
		s.InstallCanister("a", &tickCanister{name: "a", log: &log}) // reinstalling keeps one slot
		s.Start()
		sched.RunFor(10 * time.Second)
		got := log.String()
		if got == "" || got != strings.Repeat("abcd", len(got)/4) {
			t.Fatalf("run %d: timer order %q, want abcd repeated", run, got)
		}
	}
}

// payloadCanister records payloads it processes.
type payloadCanister struct {
	got []any
}

func (p *payloadCanister) Update(ctx *CallContext, method string, arg any) (any, error) {
	return nil, nil
}
func (p *payloadCanister) Query(ctx *CallContext, method string, arg any) (any, error) {
	return nil, nil
}
func (p *payloadCanister) ProcessPayload(ctx *CallContext, payload any) error {
	ctx.Meter.Charge(42, "payload")
	p.got = append(p.got, payload)
	return nil
}

func TestPayloadPipeline(t *testing.T) {
	sched, s := newTestSubnet(t, fastConfig())
	pc := &payloadCanister{}
	s.InstallCanister("btc", pc)
	next := 0
	for _, r := range s.Replicas() {
		r.SetPayloadBuilder("btc", func() any {
			next++
			return fmt.Sprintf("payload-%d", next)
		})
	}
	s.Start()
	sched.RunFor(10 * time.Second)
	if len(pc.got) < 5 {
		t.Fatalf("processed %d payloads", len(pc.got))
	}
}

func TestByzantineMakerInjectsPayload(t *testing.T) {
	cfg := fastConfig()
	sched, s := newTestSubnet(t, cfg)
	pc := &payloadCanister{}
	s.InstallCanister("btc", pc)
	for _, r := range s.Replicas() {
		r.SetPayloadBuilder("btc", func() any { return "honest" })
	}
	// One Byzantine replica, its builder replaced, injects malicious
	// payloads when it proposes.
	s.Replicas()[0].SetPayloadBuilder("btc", func() any { return "evil" })
	s.Start()
	sched.RunFor(200 * time.Second)

	honest, evil := 0, 0
	for _, p := range pc.got {
		switch p {
		case "honest":
			honest++
		case "evil":
			evil++
		}
	}
	if evil == 0 {
		t.Fatal("byzantine payload never delivered")
	}
	if honest == 0 {
		t.Fatal("honest payloads never delivered")
	}
	// With 1 of 4 replicas Byzantine, roughly 25% of payloads are evil.
	frac := float64(evil) / float64(evil+honest)
	if frac < 0.05 || frac > 0.6 {
		t.Fatalf("byzantine fraction %.2f implausible", frac)
	}
}

func TestThresholdSigningViaContext(t *testing.T) {
	cfg := fastConfig()
	cfg.N = 4
	cfg.DisableThresholdKeys = false
	sched, s := newTestSubnet(t, cfg)
	s.InstallCanister("counter", &counterCanister{})
	s.Start()

	var res Result
	s.SubmitUpdate("counter", "sign", nil, "client", func(r Result) { res = r })
	sched.RunFor(time.Minute)
	if res.Err != nil {
		t.Fatalf("sign: %v", res.Err)
	}
	der := res.Value.([]byte)
	sig, err := secp256k1.ParseDERSignature(der)
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("payload"))
	if !sig.Verify(digest[:], s.Committee().PublicKey()) {
		t.Fatal("threshold signature invalid")
	}
	// Response must be certified and verifiable.
	if res.Signature == nil {
		t.Fatal("no certification signature")
	}
	if !s.VerifyCertified(res.Value, res.Err, res.Signature) {
		t.Fatal("certification did not verify")
	}
	// Tampered value must not verify.
	if s.VerifyCertified([]byte("other"), res.Err, res.Signature) {
		t.Fatal("tampered certification verified")
	}
}

func TestSigningRejectedInQuery(t *testing.T) {
	cfg := fastConfig()
	cfg.DisableThresholdKeys = false
	sched, s := newTestSubnet(t, cfg)
	s.InstallCanister("counter", &counterCanister{})
	s.Start()
	var res Result
	s.Query("counter", "sign", nil, "client", func(r Result) { res = r })
	sched.RunFor(10 * time.Second)
	if res.Err == nil {
		t.Fatal("sign_with_ecdsa allowed in query")
	}
}

func TestInstructionsToUSD(t *testing.T) {
	// ~5.8M instructions (a small balance request) must cost well under a
	// thousandth of a cent; ~476M (a huge UTXO request) under a cent.
	small := InstructionsToUSD(5_840_000)
	big := InstructionsToUSD(476_000_000)
	if small <= 0 || big <= small {
		t.Fatal("cost model not monotone")
	}
	if big > 0.01 {
		t.Fatalf("largest request costs %.4f USD", big)
	}
	// Paper: ~35,000 balance requests per dollar → one request ≈ $1/35000.
	perBalance := 1.0 / 35_000
	if small > perBalance*10 || small < perBalance/100 {
		t.Fatalf("balance request cost %.8f USD too far from paper's %.8f", small, perBalance)
	}
}

func TestMeterCategories(t *testing.T) {
	m := NewMeter()
	m.Charge(10, "a")
	m.Charge(5, "b")
	m.Charge(1, "a")
	if m.Total() != 16 || m.Category("a") != 11 || m.Category("b") != 5 {
		t.Fatal("meter arithmetic wrong")
	}
	m.Reset()
	if m.Total() != 0 || m.Category("a") != 0 {
		t.Fatal("reset failed")
	}
}
