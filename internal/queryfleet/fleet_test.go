package queryfleet_test

import (
	"bytes"
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

// TestNewRejectsInvalidConfig: a fleet needs at least one replica and a
// staleness bound that is not negative.
func TestNewRejectsInvalidConfig(t *testing.T) {
	f := experiments.NewFeeder(btc.Regtest, 6, 914)
	for _, cfg := range []queryfleet.Config{{Replicas: 0}, {Replicas: 1, MaxLagBlocks: -1}} {
		if _, err := queryfleet.New(f.Canister, cfg); err == nil {
			t.Fatalf("New(%+v) succeeded", cfg)
		}
	}
}

// TestFleetStalenessPolicy lets replicas lag beyond the bound and checks that
// the query is forwarded and answered from the fresh authoritative state.
func TestFleetStalenessPolicy(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 2
	cfg.MaxLagBlocks = 1
	r := newRig(t, cfg, 8)
	staleWant := r.authBalance()
	// Three new blocks, never applied by the replicas: lag 3 > bound 1.
	for i := 0; i < 3; i++ {
		r.feedBlock()
	}
	freshWant := r.authBalance()
	if freshWant == staleWant {
		t.Fatal("workload did not change the balance; staleness is unobservable")
	}
	args := canister.GetBalanceArgs{Address: r.addr.String()}
	rq := r.fleet.RouteQuery("get_balance", args, "client", r.now)
	if rq.Err != nil {
		t.Fatal(rq.Err)
	}
	if !rq.Forwarded {
		t.Fatal("stale query was not forwarded")
	}
	if got := r.fleet.Stats().Forwarded; got != 1 {
		t.Fatalf("Stats.Forwarded = %d after one stale query, want 1", got)
	}
	if got := rq.Value.(int64); got != freshWant {
		t.Fatalf("forwarded balance %d, want fresh authoritative %d", got, freshWant)
	}
	// Once replicas catch up, forwarding stops.
	if err := r.fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	rq = r.fleet.RouteQuery("get_balance", args, "client", r.now)
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
	r := newRig(t, cfg, 6)
	for i := 0; i < 5; i++ {
		r.feedBlock()
	}
	if rq := r.fleet.RouteQuery("get_balance", canister.GetBalanceArgs{Address: r.addr.String()}, "c", r.now); !rq.Forwarded {
		t.Fatalf("lagging replica served before re-hydration (err %v)", rq.Err)
	}
	for _, i := range []int{-1, r.fleet.Replicas()} {
		if err := r.fleet.HydrateReplica(i); err == nil {
			t.Fatalf("HydrateReplica(%d) on a %d-replica fleet succeeded", i, r.fleet.Replicas())
		}
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

// TestRoutedQueryVerifiesUnderSubnetKey: a query routed through a signing
// fleet comes back certified, bound to the canister's chain position, and a
// client holding only the answer and the subnet key verifies it with
// Subnet.VerifyCertified over the rebuilt envelope; a changed value, another
// method or a changed tip height does not verify.
func TestRoutedQueryVerifiesUnderSubnetKey(t *testing.T) {
	subnet, sign, _, err := chaos.Committee(simnet.NewScheduler(5), 5)
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

	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 2
	fleet, err := queryfleet.New(f.Canister, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fleet.SetSigner(sign)

	rq := fleet.RouteQuery("get_balance", canister.GetBalanceArgs{Address: addr.String()}, "client", time.Unix(1_700_000_000, 0))
	if rq.Err != nil {
		t.Fatal(rq.Err)
	}
	if rq.Signature == nil {
		t.Fatal("routed query response is not certified")
	}
	if rq.TipHeight != f.Canister.TipHeight() || rq.AnchorHeight != f.Canister.AnchorHeight() {
		t.Fatalf("certification bound to (%d,%d), canister at (%d,%d)",
			rq.AnchorHeight, rq.TipHeight, f.Canister.AnchorHeight(), f.Canister.TipHeight())
	}
	verifies := func(method string, rq ic.RoutedQuery) bool {
		return subnet.VerifyCertified(rq.Envelope(method), nil, rq.Signature)
	}
	if !verifies("get_balance", rq) {
		t.Fatal("certified query response did not verify")
	}
	// Tampering with the value, the method, or the bound heights breaks it.
	tampered := rq
	tampered.Value = rq.Value.(int64) + 1
	if verifies("get_balance", tampered) {
		t.Fatal("tampered value verified")
	}
	if verifies("get_utxos", rq) {
		t.Fatal("signature replayed across methods verified")
	}
	tampered = rq
	tampered.TipHeight++
	if verifies("get_balance", tampered) {
		t.Fatal("tampered tip height verified")
	}
}

// TestFleetConcurrentQueriesAndFrames is the race-detector workout: many
// client goroutines query the fleet (all endpoints) while the authoritative
// canister keeps publishing frames that a drainer goroutine applies
// concurrently — the producer applies while clients route. The staleness
// bound is zero, so stale round-robin picks hit the forward path while the
// producer mutates the authority — which is why the producer wraps every
// payload in GuardAuthority, and mid-run re-hydrations snapshot the
// authority under the same guard. The second input runs the same body
// through the serving layers — coalescing, and a hot cache every frame
// invalidates and that holds two of the clients' four keys, so fills are
// refused and stale entries swept beside the frames — the stack's only run
// under many goroutines and frames.
func TestFleetConcurrentQueriesAndFrames(t *testing.T) {
	bare := queryfleet.Config{
		Replicas:         3,
		MaxLagBlocks:     0, // any lag forwards: exercises forward-under-feed
		QueryConcurrency: 4,
	}
	layered := bare
	layered.Coalesce = true
	layered.CacheEntries = 2
	t.Run("bare", func(t *testing.T) {
		if _, st := concurrentQueriesAndFrames(t, bare); st.CacheHits+st.Coalesced != 0 {
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
	// The drainer: applies frames as the producer publishes them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.fleet.CatchUpAll(); err != nil {
				t.Errorf("drainer: %v", err)
				return
			}
		}
	}()
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

// TestFleetDecodesEachFrameOnce: a three-replica fleet, drained by one
// goroutine per replica while the authority publishes, decodes each frame
// once between its replicas, and every replica ends byte-identical to the
// authority. A frame fault that hands replica 1 alone a bit-flipped
// alternate costs one decode more: only replica 1 rejects it and resyncs,
// and replicas 0 and 2 apply the shared clean decode. A frame every
// replica's fault replaces by a copy is still decoded once as it is
// published, and each copy once by its replica. A frame that a re-hydration
// of every replica supersedes before any replica applies it is decoded once
// all the same.
func TestFleetDecodesEachFrameOnce(t *testing.T) {
	const frames = 12
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 3
	for _, tc := range []struct {
		name    string
		fault   queryfleet.FrameFault
		decodes uint64
		resyncs uint64
		// supersede is the frame every replica is re-hydrated past before
		// any drains it; 0 for none.
		supersede int
	}{
		{name: "shared", decodes: frames},
		{
			name: "alternate",
			fault: func(replica int, seq uint64, raw []byte) [][]byte {
				if replica != 1 || seq != frames/2 {
					return [][]byte{raw}
				}
				cp := bytes.Clone(raw)
				cp[len(cp)/2] ^= 0x10
				return [][]byte{cp}
			},
			decodes: frames + 1,
			resyncs: 1,
		},
		{
			name: "replaced",
			fault: func(replica int, seq uint64, raw []byte) [][]byte {
				if seq != frames/2 {
					return [][]byte{raw}
				}
				return [][]byte{bytes.Clone(raw)}
			},
			decodes: frames + uint64(cfg.Replicas),
		},
		{name: "superseded", decodes: frames, supersede: frames / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, cfg, 6)
			if tc.fault != nil {
				r.fleet.SetFrameFault(tc.fault)
			}
			drain := func() (stop func()) {
				var wg sync.WaitGroup
				done := make(chan struct{})
				for i := 0; i < cfg.Replicas; i++ {
					wg.Add(1)
					go func(replica *queryfleet.Replica) {
						defer wg.Done()
						for {
							select {
							case <-done:
								return
							default:
							}
							if _, err := replica.ApplyPending(-1); err != nil {
								t.Errorf("replica drain: %v", err)
								return
							}
						}
					}(r.fleet.Replica(i))
				}
				return func() {
					close(done)
					wg.Wait()
				}
			}
			stop := drain()
			for i := 1; i <= frames; i++ {
				if i == tc.supersede {
					stop()
				}
				if err := r.fleet.GuardAuthority(func() error {
					r.feedBlock()
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if i == tc.supersede {
					for k := 0; k < cfg.Replicas; k++ {
						if err := r.fleet.HydrateReplica(k); err != nil {
							t.Fatal(err)
						}
						if n := r.fleet.Replica(k).Pending(); n != 0 {
							t.Fatalf("replica %d keeps %d frames past its re-hydration", k, n)
						}
					}
					stop = drain()
				}
			}
			stop()
			if err := r.fleet.CatchUpAll(); err != nil {
				t.Fatal(err)
			}
			r.fleet.Close() // joins the decodes no replica waited for

			st := r.fleet.Stats()
			decoded := r.fleet.Metrics().Counter("fleet_frames_decoded_total").Value()
			if st.Frames != frames || decoded != tc.decodes {
				t.Fatalf("%d frames published, %d decoded; want %d decoded", st.Frames, decoded, tc.decodes)
			}
			if st.Resyncs != tc.resyncs || st.FrameCorrupt != tc.resyncs {
				t.Fatalf("%d resyncs, %d corrupt frames; want %d of each", st.Resyncs, st.FrameCorrupt, tc.resyncs)
			}
			want, err := r.f.Canister.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < cfg.Replicas; i++ {
				replica := r.fleet.Replica(i)
				got, err := replica.Canister().Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if replica.Broken() || !bytes.Equal(got, want) {
					t.Fatalf("replica %d (broken %v) is not byte-identical to the authority", i, replica.Broken())
				}
			}
		})
	}
}
