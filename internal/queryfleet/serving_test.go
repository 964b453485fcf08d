package queryfleet_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/chaos"
	"icbtc/internal/ic"
	"icbtc/internal/queryfleet"
	"icbtc/internal/simnet"
)

// TestCacheServesIdenticalCertifiedEnvelope fills the hot-response cache
// with a signed get_utxos response and asserts the hit serves the same
// envelope — value digest and signature bytes — without re-execution, and
// that the cache-served signature still verifies under the subnet key.
func TestCacheServesIdenticalCertifiedEnvelope(t *testing.T) {
	subnet, sign, _, err := chaos.Committee(simnet.NewScheduler(7), 7)
	if err != nil {
		t.Fatal(err)
	}

	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 2
	cfg.CacheEntries = 64
	r := newRig(t, cfg, 10)
	r.fleet.SetSigner(sign)

	args := canister.GetUTXOsArgs{Address: r.addr.String(), Limit: 5}
	fresh := r.fleet.RouteQuery("get_utxos", args, "client", r.now)
	if fresh.Err != nil {
		t.Fatal(fresh.Err)
	}
	if fresh.Signature == nil {
		t.Fatal("fresh response is not certified")
	}
	if r.fleet.Stats().CacheHits != 0 {
		t.Fatal("first request hit the cache")
	}
	if r.fleet.CacheSize() != 1 {
		t.Fatalf("cache size %d after fill, want 1", r.fleet.CacheSize())
	}

	served := r.fleet.Replica(0).Served() + r.fleet.Replica(1).Served()
	hit := r.fleet.RouteQuery("get_utxos", args, "client", r.now)
	if r.fleet.Stats().CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", r.fleet.Stats().CacheHits)
	}
	if got := r.fleet.Replica(0).Served() + r.fleet.Replica(1).Served(); got != served {
		t.Fatalf("cache hit re-executed: replica served count %d -> %d", served, got)
	}
	if ic.ResponseDigest(hit.Value, hit.Err) != ic.ResponseDigest(fresh.Value, fresh.Err) {
		t.Fatal("cache hit served a different response")
	}
	if !bytes.Equal(hit.Signature, fresh.Signature) {
		t.Fatal("cache hit served different signature bytes")
	}
	// The acceptance criterion: VerifyCertified passes on the cache-served
	// envelope exactly as on a fresh one.
	if err := chaos.CheckCertified(subnet, "get_utxos", hit); err != nil {
		t.Fatalf("cache-served envelope: %v", err)
	}

	// A differing argument field must miss (distinct canonical key).
	other := canister.GetUTXOsArgs{Address: r.addr.String(), Limit: 6}
	if rq := r.fleet.RouteQuery("get_utxos", other, "client", r.now); rq.Err != nil {
		t.Fatal(rq.Err)
	}
	if r.fleet.Stats().CacheHits != 1 {
		t.Fatal("request with a different Limit hit the hot entry")
	}
}

// TestCacheInvalidatedByFrames asserts every distributed frame invalidates
// the cache — the "never serve across a tip change" contract — and that
// serving resumes with a fresh fill afterwards.
func TestCacheInvalidatedByFrames(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 2
	cfg.CacheEntries = 64
	r := newRig(t, cfg, 10)

	args := canister.GetBalanceArgs{Address: r.addr.String()}
	first := r.fleet.RouteQuery("get_balance", args, "client", r.now)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if hits := r.fleet.Stats().CacheHits; hits != 0 {
		t.Fatalf("CacheHits = %d before any repeat", hits)
	}

	// Tip moves: the entry must not be served even though the key matches.
	r.feedBlock()
	if err := r.fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	second := r.fleet.RouteQuery("get_balance", args, "client", r.now)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if hits := r.fleet.Stats().CacheHits; hits != 0 {
		t.Fatalf("CacheHits = %d across a tip move, want 0", hits)
	}
	if second.Value.(int64) == first.Value.(int64) {
		t.Fatal("balance unchanged after a paying block; invalidation test is vacuous")
	}
	if want := r.authBalance(); second.Value.(int64) != want {
		t.Fatalf("post-frame response %d, authoritative %d", second.Value.(int64), want)
	}

	// Same generation again: now it hits, serving the refreshed value.
	third := r.fleet.RouteQuery("get_balance", args, "client", r.now)
	if hits := r.fleet.Stats().CacheHits; hits != 1 {
		t.Fatalf("CacheHits = %d after repeat at stable tip, want 1", hits)
	}
	if third.Value.(int64) != second.Value.(int64) {
		t.Fatal("cache hit served a stale value")
	}
}

// TestCacheCapacityFirstFillWins offers a 4-entry cache more keys than it
// holds. The first four to fill stay and keep hitting with the envelope they
// filled with; every later key at that generation executes, is answered like
// the authority answers, and is refused — the first refusal after one sweep
// that finds nothing stale, the rest without another. One frame later the
// four are stale: a single sweep drops them and the fifth key lands.
func TestCacheCapacityFirstFillWins(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 1
	cfg.CacheEntries = 4
	// Every execution signs with the next serial number, so an envelope
	// served twice is told from one computed twice.
	var signed atomic.Uint64
	r := newRig(t, cfg, 10)
	r.fleet.SetSigner(func(digest []byte) ([]byte, error) {
		return binary.BigEndian.AppendUint64(append([]byte(nil), digest...), signed.Add(1)), nil
	})

	count := func(name string) uint64 { return r.fleet.Metrics().Counter(name).Value() }
	expect := func(when string, size int, fills, refused, sweeps uint64) {
		t.Helper()
		if r.fleet.CacheSize() != size || count("fleet_cache_fills_total") != fills ||
			count("fleet_cache_refused_total") != refused || count("fleet_cache_sweeps_total") != sweeps {
			t.Fatalf("%s: %d resident, %d fills, %d refused, %d sweeps; want %d, %d, %d, %d", when,
				r.fleet.CacheSize(), count("fleet_cache_fills_total"), count("fleet_cache_refused_total"),
				count("fleet_cache_sweeps_total"), size, fills, refused, sweeps)
		}
	}
	query := func(limit int) ic.RoutedQuery {
		t.Helper()
		args := canister.GetUTXOsArgs{Address: r.addr.String(), Limit: limit}
		rq := r.fleet.RouteQuery("get_utxos", args, "client", r.now)
		if rq.Err != nil {
			t.Fatal(rq.Err)
		}
		want, err := r.f.Canister.GetUTXOs(ic.NewCallContext(ic.KindQuery, r.now), args)
		if ic.ResponseDigest(rq.Value, rq.Err) != ic.ResponseDigest(want, err) {
			t.Fatalf("limit %d: routed response differs from the authority's", limit)
		}
		return rq
	}

	var resident [4]ic.RoutedQuery
	for i := range resident {
		resident[i] = query(i + 1)
	}
	expect("four keys", 4, 4, 0, 0)

	query(5)
	expect("fifth key", 4, 4, 1, 1)
	executed := signed.Load()
	query(5)
	if signed.Load() != executed+1 || r.fleet.Stats().CacheHits != 0 {
		t.Fatalf("the refused key was served from the cache (%d hits)", r.fleet.Stats().CacheHits)
	}
	const more = 20
	for i := 0; i < more; i++ {
		query(6 + i)
	}
	expect("a full generation", 4, 4, 2+more, 1)

	executed = signed.Load()
	for i, first := range resident {
		hit := query(i + 1)
		if !bytes.Equal(hit.Signature, first.Signature) || ic.ResponseDigest(hit.Value, hit.Err) != ic.ResponseDigest(first.Value, first.Err) {
			t.Fatalf("resident key %d served another envelope than it filled with", i+1)
		}
	}
	if hits := r.fleet.Stats().CacheHits; hits != 4 || signed.Load() != executed {
		t.Fatalf("%d hits and %d executions on the four resident keys", hits, signed.Load()-executed)
	}

	r.feedBlock()
	if err := r.fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	query(5)
	expect("after a frame", 1, 5, 2+more, 2)
	query(5)
	if hits := r.fleet.Stats().CacheHits; hits != 5 {
		t.Fatalf("%d hits: the fifth key did not land", hits)
	}
}

// TestCacheEntryImmutableOnceStored holds a hit's answer while the entry it
// came from goes stale, is swept, and its key is refilled with another
// envelope — with a reader hitting the cache throughout, so the race detector
// sees any write to a stored entry (a hit reads its entry after the cache
// lock is released). The held answer keeps its value and
// signature bytes: a hit hands out the entry's answer, and the cache only
// ever replaces entries, never rewrites one.
func TestCacheEntryImmutableOnceStored(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 1
	cfg.CacheEntries = 1
	var signed atomic.Uint64
	r := newRig(t, cfg, 10)
	r.fleet.SetSigner(func(digest []byte) ([]byte, error) {
		return binary.BigEndian.AppendUint64(append([]byte(nil), digest...), signed.Add(1)), nil
	})
	route := func(limit int) ic.RoutedQuery {
		t.Helper()
		rq := r.fleet.RouteQuery("get_utxos", canister.GetUTXOsArgs{Address: r.addr.String(), Limit: limit}, "client", r.now)
		if rq.Err != nil {
			t.Fatal(rq.Err)
		}
		return rq
	}
	frame := func() {
		t.Helper()
		r.feedBlock()
		if err := r.fleet.CatchUpAll(); err != nil {
			t.Fatal(err)
		}
	}

	route(1)
	held := route(1)
	if r.fleet.Stats().CacheHits != 1 {
		t.Fatal("the second query did not hit")
	}
	heldSig, heldDigest := bytes.Clone(held.Signature), ic.ResponseDigest(held.Value, held.Err)

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.fleet.RouteQuery("get_utxos", canister.GetUTXOsArgs{Address: r.addr.String(), Limit: 1}, "client", r.now)
			}
		}
	}()
	// Each frame leaves the one resident entry stale; the next fill — of the
	// second key, of the held key, or the reader's — sweeps it or stores a
	// new entry in its place.
	for i := 0; i < 10; i++ {
		frame()
		route(2)
		frame()
		route(1)
	}
	close(stop)
	reader.Wait()

	refilled := route(1)
	if bytes.Equal(refilled.Signature, heldSig) {
		t.Fatal("the key was not refilled with a new envelope; the test is vacuous")
	}
	if !bytes.Equal(held.Signature, heldSig) || ic.ResponseDigest(held.Value, held.Err) != heldDigest {
		t.Fatal("a held cache answer changed when its entry was swept and refilled")
	}
}

// TestCacheNotFilledFromLaggingReplica feeds a frame the replicas have not
// applied and asserts responses computed from the lagging state are not
// cached: a fill is only sound when the serving state provably matches the
// current stream generation.
func TestCacheNotFilledFromLaggingReplica(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 2
	cfg.MaxLagBlocks = 2 // wider than the one-block lag below: serve from the lagging state
	cfg.CacheEntries = 64
	r := newRig(t, cfg, 10)

	r.feedBlock() // enqueued on replicas, deliberately not applied
	rq := r.fleet.RouteQuery("get_balance", canister.GetBalanceArgs{Address: r.addr.String()}, "client", r.now)
	if rq.Err != nil {
		t.Fatal(rq.Err)
	}
	if rq.Forwarded {
		t.Fatal("query was forwarded; lagging-replica path not exercised")
	}
	if size := r.fleet.CacheSize(); size != 0 {
		t.Fatalf("lagging-replica response was cached (size %d)", size)
	}

	// Once the replicas catch up, the same request fills normally.
	if err := r.fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	if rq := r.fleet.RouteQuery("get_balance", canister.GetBalanceArgs{Address: r.addr.String()}, "client", r.now); rq.Err != nil {
		t.Fatal(rq.Err)
	}
	if size := r.fleet.CacheSize(); size != 1 {
		t.Fatalf("cache size %d after caught-up fill, want 1", size)
	}
}

// TestCoalesceFansOutOneExecution parks a leader inside the signing stage,
// piles followers onto the same canonical request, and asserts exactly one
// execution happened whose response — signature bytes included — fanned
// out to every waiter.
func TestCoalesceFansOutOneExecution(t *testing.T) {
	const followers = 8

	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	var signMu sync.Mutex
	signCount := 0
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 2
	cfg.Coalesce = true
	r := newRig(t, cfg, 10)
	r.fleet.SetSigner(func(digest []byte) ([]byte, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-block
		signMu.Lock()
		signCount++
		signMu.Unlock()
		sig := make([]byte, 64)
		copy(sig, digest)
		copy(sig[32:], digest)
		return sig, nil
	})

	args := canister.GetUTXOsArgs{Address: r.addr.String(), Limit: 5}
	results := make(chan ic.RoutedQuery, followers+1)
	go func() { results <- r.fleet.RouteQuery("get_utxos", args, "client", r.now) }()
	<-entered // leader is executing, parked in the signer

	for i := 0; i < followers; i++ {
		go func() { results <- r.fleet.RouteQuery("get_utxos", args, "client", r.now) }()
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.fleet.FlightWaiters("get_utxos", args) < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers joined the flight", r.fleet.FlightWaiters("get_utxos", args), followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(block)

	first := <-results
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	for i := 0; i < followers; i++ {
		rq := <-results
		if rq.Err != nil {
			t.Fatal(rq.Err)
		}
		if ic.ResponseDigest(rq.Value, rq.Err) != ic.ResponseDigest(first.Value, first.Err) {
			t.Fatal("coalesced follower got a different response")
		}
		if !bytes.Equal(rq.Signature, first.Signature) {
			t.Fatal("coalesced follower got different signature bytes")
		}
	}
	signMu.Lock()
	defer signMu.Unlock()
	if signCount != 1 {
		t.Fatalf("coalesced burst signed %d times, want 1", signCount)
	}
	st := r.fleet.Stats()
	if st.Coalesced != followers {
		t.Fatalf("Stats.Coalesced = %d, want %d", st.Coalesced, followers)
	}
	if st.Served != 1 {
		t.Fatalf("Stats.Served = %d, want 1 (one execution for the burst)", st.Served)
	}
}

// TestLayeredUnknownMethodStillErrors pins the fall-through: an
// unregistered method bypasses the layers and reports the canister's
// canonical dispatch error.
func TestLayeredUnknownMethodStillErrors(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 1
	cfg.Coalesce = true
	cfg.CacheEntries = 16
	r := newRig(t, cfg, 5)
	rq := r.fleet.RouteQuery("no_such_method", nil, "client", r.now)
	if rq.Err == nil || rq.Err.Error() != `canister: no query method "no_such_method"` {
		t.Fatalf("unknown method error = %v", rq.Err)
	}
	// A wrong-typed argument skips the layers but reports the typed error.
	rq = r.fleet.RouteQuery("get_utxos", canister.GetBalanceArgs{}, "client", r.now)
	if rq.Err == nil {
		t.Fatal("wrong-typed argument did not error")
	}
	if r.fleet.CacheSize() != 0 {
		t.Fatal("error responses were cached")
	}
}

// TestKeylessRequestPassesTheLayersBy: a request the registry gives no key —
// here a get_utxos whose address is a megabyte, far past
// canister.MaxRequestKeyLen, then one with a wrong-typed argument — is served
// the way a layer-less fleet serves it. The canister's own answer comes back
// (an address is an opaque index key to it: the megabyte owns nothing), no
// byte of the request is retained in the cache or a flight, and every repeat
// is executed afresh.
func TestKeylessRequestPassesTheLayersBy(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 1
	cfg.Coalesce = true
	cfg.CacheEntries = 16
	r := newRig(t, cfg, 5)

	huge := canister.GetUTXOsArgs{Address: strings.Repeat("a", 1<<20)}
	for name, arg := range map[string]any{"over-long": huge, "wrong-typed": canister.GetBalanceArgs{}} {
		want := ic.ResponseDigest(r.f.Canister.Query(ic.NewCallContext(ic.KindQuery, r.now), "get_utxos", arg))
		for i := 0; i < 2; i++ {
			rq := r.fleet.RouteQuery("get_utxos", arg, "client", r.now)
			if ic.ResponseDigest(rq.Value, rq.Err) != want {
				t.Fatalf("%s query %d: (%v, %v) is not the canister's own answer", name, i, rq.Value, rq.Err)
			}
		}
	}
	if st := r.fleet.Stats(); st.Served != 4 || st.Coalesced != 0 || st.CacheHits != 0 {
		t.Fatalf("Stats = served %d, coalesced %d, hits %d; want 4, 0, 0", st.Served, st.Coalesced, st.CacheHits)
	}
	if n := r.fleet.CacheSize(); n != 0 {
		t.Fatalf("cache holds %d entries after keyless requests, want 0", n)
	}
	if n := r.fleet.FlightWaiters("get_utxos", huge); n != 0 {
		t.Fatalf("FlightWaiters = %d for a keyless request, want 0", n)
	}
}

// TestNetworkFieldChangesCacheKey guards the property end to end on the
// serving path: requests differing only in an argument field never share a
// cache entry.
func TestNetworkFieldChangesCacheKey(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 1
	cfg.CacheEntries = 16
	r := newRig(t, cfg, 5)

	a := canister.GetBalanceArgs{Address: r.addr.String()}
	b := canister.GetBalanceArgs{Address: r.addr.String(), Network: btc.Regtest}
	if rq := r.fleet.RouteQuery("get_balance", a, "client", r.now); rq.Err != nil {
		t.Fatal(rq.Err)
	}
	if rq := r.fleet.RouteQuery("get_balance", b, "client", r.now); rq.Err != nil {
		t.Fatal(rq.Err)
	}
	if hits := r.fleet.Stats().CacheHits; hits != 0 {
		t.Fatalf("distinct Network fields shared a cache entry (%d hits)", hits)
	}
	if size := r.fleet.CacheSize(); size != 2 {
		t.Fatalf("cache size %d, want 2 distinct entries", size)
	}
}
