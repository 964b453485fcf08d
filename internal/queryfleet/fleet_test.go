package queryfleet_test

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/chaos"
	"icbtc/internal/experiments"
	"icbtc/internal/ic"
	"icbtc/internal/queryfleet"
	"icbtc/internal/simnet"
)

// rig couples a feeder-driven authoritative canister to a fleet.
type rig struct {
	t     *testing.T
	f     *experiments.Feeder
	fleet *queryfleet.Fleet
	addr  btc.Address
	now   time.Time
}

func newRig(t *testing.T, cfg queryfleet.Config, preload int) *rig {
	t.Helper()
	r := &rig{
		t:    t,
		f:    experiments.NewFeeder(btc.Regtest, 6, 911),
		addr: btc.NewP2PKHAddress([20]byte{0xAB}, btc.Regtest),
		now:  time.Unix(1_700_000_000, 0).UTC(),
	}
	for i := 0; i < preload; i++ {
		r.feedBlock()
	}
	fleet, err := queryfleet.New(r.f.Canister, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.fleet = fleet // New subscribed it to the canister's frame stream
	t.Cleanup(fleet.Close)
	return r
}

func (r *rig) feedBlock() {
	script := btc.PayToAddrScript(r.addr)
	if _, err := r.f.FeedBlock([]experiments.TxSpec{{Outputs: experiments.PayN(script, 3, 700)}}); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rig) authBalance() int64 {
	ctx := ic.NewCallContext(ic.KindQuery, r.now)
	v, err := r.f.Canister.GetBalance(ctx, canister.GetBalanceArgs{Address: r.addr.String()})
	if err != nil {
		r.t.Fatal(err)
	}
	return v
}

// TestFleetServesIdenticalResponses hydrates replicas, feeds more blocks
// through the delta stream, and checks that routed queries answer exactly
// like the authoritative canister.
func TestFleetServesIdenticalResponses(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 3
	r := newRig(t, cfg, 10)
	for i := 0; i < 8; i++ {
		r.feedBlock()
	}
	if err := r.fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	want := r.authBalance()
	if want == 0 {
		t.Fatal("authoritative balance is zero; workload is vacuous")
	}
	args := canister.GetBalanceArgs{Address: r.addr.String()}
	for i := 0; i < 6; i++ { // round-robin across all replicas
		rq := r.fleet.RouteQuery("get_balance", args, "client", r.now)
		if rq.Err != nil {
			t.Fatalf("routed query %d: %v", i, rq.Err)
		}
		if got := rq.Value.(int64); got != want {
			t.Fatalf("routed query %d: balance %d, authoritative %d", i, got, want)
		}
		if rq.Forwarded {
			t.Fatalf("routed query %d was forwarded despite caught-up replicas", i)
		}
		if rq.TipHeight != r.f.Canister.TipHeight() {
			t.Fatalf("routed query %d bound to tip %d, authoritative %d", i, rq.TipHeight, r.f.Canister.TipHeight())
		}
	}
	// get_utxos responses must match the authoritative page too.
	uargs := canister.GetUTXOsArgs{Address: r.addr.String(), Limit: 7}
	ctx := ic.NewCallContext(ic.KindQuery, r.now)
	authRes, err := r.f.Canister.GetUTXOs(ctx, uargs)
	if err != nil {
		t.Fatal(err)
	}
	rq := r.fleet.RouteQuery("get_utxos", uargs, "client", r.now)
	if rq.Err != nil {
		t.Fatal(rq.Err)
	}
	if ic.ResponseDigest(rq.Value, nil) != ic.ResponseDigest(authRes, nil) {
		t.Fatal("routed get_utxos diverged from the authoritative response")
	}
}

// TestFleetStalenessPolicy lets replicas lag beyond the bound and checks
// both policies: rejection with ErrTooStale, and forwarding that serves
// the authoritative state.
func TestFleetStalenessPolicy(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 2
	cfg.MaxLagBlocks = 1
	cfg.StalePolicy = queryfleet.StaleReject
	r := newRig(t, cfg, 8)
	// Three new blocks, never applied by the replicas: lag 3 > bound 1.
	for i := 0; i < 3; i++ {
		r.feedBlock()
	}
	args := canister.GetBalanceArgs{Address: r.addr.String()}
	rq := r.fleet.RouteQuery("get_balance", args, "client", r.now)
	if !errors.Is(rq.Err, queryfleet.ErrTooStale) {
		t.Fatalf("want ErrTooStale, got %v", rq.Err)
	}
	if r.fleet.Stats().Rejected == 0 {
		t.Fatal("rejection not counted")
	}

	// Same lag, forwarding policy: the answer must be the *current*
	// authoritative balance, not the stale replica view.
	cfg.StalePolicy = queryfleet.StaleForward
	r2 := newRig(t, cfg, 8)
	staleWant := r2.authBalance()
	for i := 0; i < 3; i++ {
		r2.feedBlock()
	}
	freshWant := r2.authBalance()
	if freshWant == staleWant {
		t.Fatal("workload did not change the balance; staleness is unobservable")
	}
	rq = r2.fleet.RouteQuery("get_balance", args, "client", r2.now)
	if rq.Err != nil {
		t.Fatal(rq.Err)
	}
	if !rq.Forwarded {
		t.Fatal("stale query was not forwarded")
	}
	if got := rq.Value.(int64); got != freshWant {
		t.Fatalf("forwarded balance %d, want fresh authoritative %d", got, freshWant)
	}
	// Once replicas catch up, forwarding stops.
	if err := r2.fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	rq = r2.fleet.RouteQuery("get_balance", args, "client", r2.now)
	if rq.Err != nil || rq.Forwarded {
		t.Fatalf("caught-up query: err=%v forwarded=%v", rq.Err, rq.Forwarded)
	}
}

// TestFleetRehydration jumps a hopelessly lagging replica to the current
// state via snapshot fast-sync instead of frame replay.
func TestFleetRehydration(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 1
	cfg.MaxLagBlocks = 0
	cfg.StalePolicy = queryfleet.StaleReject
	r := newRig(t, cfg, 6)
	for i := 0; i < 5; i++ {
		r.feedBlock()
	}
	if rq := r.fleet.RouteQuery("get_balance", canister.GetBalanceArgs{Address: r.addr.String()}, "c", r.now); !errors.Is(rq.Err, queryfleet.ErrTooStale) {
		t.Fatalf("want ErrTooStale before re-hydration, got %v", rq.Err)
	}
	if err := r.fleet.HydrateReplica(0); err != nil {
		t.Fatal(err)
	}
	if pending := r.fleet.Replica(0).Pending(); pending != 0 {
		t.Fatalf("re-hydrated replica still has %d queued frames", pending)
	}
	rq := r.fleet.RouteQuery("get_balance", canister.GetBalanceArgs{Address: r.addr.String()}, "c", r.now)
	if rq.Err != nil {
		t.Fatal(rq.Err)
	}
	if got := rq.Value.(int64); got != r.authBalance() {
		t.Fatalf("re-hydrated balance %d, authoritative %d", got, r.authBalance())
	}
	// The stream keeps working after a re-hydration.
	r.feedBlock()
	if err := r.fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	rq = r.fleet.RouteQuery("get_balance", canister.GetBalanceArgs{Address: r.addr.String()}, "c", r.now)
	if rq.Err != nil || rq.Value.(int64) != r.authBalance() {
		t.Fatalf("post-rehydration stream broken: %v %v", rq.Value, rq.Err)
	}
}

// TestSubnetQueryRoutesThroughFleet wires the fleet into ic.Subnet.Query:
// queries come back certified, verify via Subnet.VerifyCertified (through
// the VerifyCertifiedQuery envelope helper), and tampering breaks them.
func TestSubnetQueryRoutesThroughFleet(t *testing.T) {
	sched := simnet.NewScheduler(5)
	subnet, sign, _, err := chaos.Committee(sched, 5)
	if err != nil {
		t.Fatal(err)
	}

	f := experiments.NewFeeder(btc.Regtest, 6, 912)
	addr := btc.NewP2PKHAddress([20]byte{0xCD}, btc.Regtest)
	script := btc.PayToAddrScript(addr)
	for i := 0; i < 12; i++ {
		if _, err := f.FeedBlock([]experiments.TxSpec{{Outputs: experiments.PayN(script, 2, 900)}}); err != nil {
			t.Fatal(err)
		}
	}
	subnet.InstallCanister("bitcoin", f.Canister)

	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 2
	fleet, err := queryfleet.New(f.Canister, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	fleet.SetSigner(sign)
	subnet.SetQueryRouter("bitcoin", fleet)

	var res ic.Result
	done := false
	subnet.Query("bitcoin", "get_balance", canister.GetBalanceArgs{Address: addr.String()}, "client", func(r ic.Result) {
		res = r
		done = true
	})
	sched.RunFor(30 * time.Second)
	if !done {
		t.Fatal("routed query never completed")
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Certified || res.Signature == nil {
		t.Fatal("routed query response is not certified")
	}
	if res.TipHeight != f.Canister.TipHeight() || res.AnchorHeight != f.Canister.AnchorHeight() {
		t.Fatalf("certification bound to (%d,%d), canister at (%d,%d)",
			res.AnchorHeight, res.TipHeight, f.Canister.AnchorHeight(), f.Canister.TipHeight())
	}
	if !subnet.VerifyCertifiedQuery("get_balance", res) {
		t.Fatal("certified query response did not verify")
	}
	// Tampering with the value, the method, or the bound heights breaks it.
	tampered := res
	tampered.Value = res.Value.(int64) + 1
	if subnet.VerifyCertifiedQuery("get_balance", tampered) {
		t.Fatal("tampered value verified")
	}
	if subnet.VerifyCertifiedQuery("get_utxos", res) {
		t.Fatal("signature replayed across methods verified")
	}
	tampered = res
	tampered.TipHeight++
	if subnet.VerifyCertifiedQuery("get_balance", tampered) {
		t.Fatal("tampered tip height verified")
	}
}

// TestFleetConcurrentQueriesAndFrames is the race-detector workout: many
// client goroutines query the fleet (all endpoints) while the authoritative
// canister keeps publishing frames that auto-apply workers consume
// concurrently. The staleness bound is finite and the policy forwards, so
// stale round-robin picks hit the forward path while the producer mutates
// the authority — which is why the producer wraps every payload in
// GuardAuthority, and mid-run re-hydrations snapshot the authority under
// the same guard. The second input runs the same body through the serving
// layers — coalescing, a hot cache every frame invalidates and that holds two
// of the clients' four keys, so fills are refused and stale entries swept
// beside the frames, and admission with a scan budget no client exhausts (the
// clients' timestamp is fixed, so it never refills) — the stack's only run
// under many goroutines and frames.
func TestFleetConcurrentQueriesAndFrames(t *testing.T) {
	bare := queryfleet.Config{
		Replicas:         3,
		MaxLagBlocks:     0, // any lag forwards: exercises forward-under-feed
		StalePolicy:      queryfleet.StaleForward,
		QueryConcurrency: 4,
		AutoApply:        true,
	}
	layered := bare
	layered.Coalesce = true
	layered.CacheEntries = 2
	layered.Budgets = map[canister.CostClass]queryfleet.Budget{canister.CostScan: {Burst: 1 << 40}}
	t.Run("bare", func(t *testing.T) {
		if _, st := concurrentQueriesAndFrames(t, bare); st.CacheHits+st.Coalesced+st.Shed != 0 {
			t.Fatalf("a fleet without serving layers touched them: %+v", st)
		}
	})
	t.Run("layered", func(t *testing.T) {
		fleet, st := concurrentQueriesAndFrames(t, layered)
		if st.CacheHits == 0 {
			t.Fatalf("no query was served from the hot cache: %+v", st)
		}
		// Thousands of refusals and two sweeps a frame in practice.
		refused := fleet.Metrics().Counter("fleet_cache_refused_total").Value()
		sweeps := fleet.Metrics().Counter("fleet_cache_sweeps_total").Value()
		if refused == 0 || sweeps == 0 {
			t.Fatalf("a cache of half the key set refused %d fills and swept %d times", refused, sweeps)
		}
	})
}

func concurrentQueriesAndFrames(t *testing.T, cfg queryfleet.Config) (*queryfleet.Fleet, queryfleet.Stats) {
	r := newRig(t, cfg, 10)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	methods := []string{"get_balance", "get_utxos", "get_current_fee_percentiles", "get_block_headers"}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				var arg any
				method := methods[rng.Intn(len(methods))]
				switch method {
				case "get_balance":
					arg = canister.GetBalanceArgs{Address: r.addr.String()}
				case "get_utxos":
					arg = canister.GetUTXOsArgs{Address: r.addr.String(), Limit: 5}
				case "get_block_headers":
					arg = canister.GetBlockHeadersArgs{}
				}
				if rq := r.fleet.RouteQuery(method, arg, "client", r.now); rq.Err != nil {
					t.Errorf("%s: %v", method, rq.Err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 30; i++ {
		if err := r.fleet.GuardAuthority(func() error {
			r.feedBlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if i%10 == 5 {
			if err := r.fleet.HydrateReplica(i % cfg.Replicas); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	st := r.fleet.Stats() // what the clients saw, before the probe below
	if err := r.fleet.Err(); err != nil {
		t.Fatal(err)
	}
	// The auto-apply workers are still live: ApplyPending serializes this
	// drain behind whatever batch a worker holds.
	if err := r.fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	want := r.authBalance()
	rq := r.fleet.RouteQuery("get_balance", canister.GetBalanceArgs{Address: r.addr.String()}, "client", r.now)
	if rq.Err != nil || rq.Value.(int64) != want {
		t.Fatalf("final balance %v (%v), want %d", rq.Value, rq.Err, want)
	}
	return r.fleet, st
}

// TestApplyPendingConcurrentCallers: two goroutines drain one replica while
// the authority keeps publishing. Dequeue order must be apply order whoever
// dequeues, so neither may see the other's in-flight frame as a sequence gap:
// no error, no quarantine, and the replica ends byte-identical to the
// authority. Over 400 frames the unserialized ApplyPending failed 19 runs of
// 20; over 60, 3 of 10.
func TestApplyPendingConcurrentCallers(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 1
	r := newRig(t, cfg, 6)
	replica := r.fleet.Replica(0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := replica.ApplyPending(-1); err != nil {
					t.Errorf("ApplyPending beside another caller: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 400; i++ {
		r.feedBlock()
	}
	close(stop)
	wg.Wait()
	if err := replica.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if replica.Broken() {
		t.Fatal("replica quarantined by its own two drainers")
	}
	want, err := r.f.Canister.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := replica.Canister().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("replica not byte-identical to the authority after a two-caller drain")
	}
}
