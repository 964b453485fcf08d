package queryfleet

// serving.go implements the fleet's serving layers, the path one query
// takes before (or instead of) reaching a replica:
//
//	coalesce → cache → admit → execute
//
// Coalescing collapses concurrent identical queries — same canonical
// request encoding from the canister's method registry — into one execution
// whose result (including its certification signature) fans out to every
// waiter. The certified hot-response cache serves threshold-signed
// envelopes without re-execution for as long as the fleet's stream
// generation (the last distributed frame) is unchanged; any frame — new
// block, reorg, header advance — bumps the generation and implicitly
// invalidates every entry, so the cache can never serve across a tip or
// anchor move. Admission control charges each execution against its
// method's cost-class token bucket and sheds the overflow with ErrBusy, so
// a paginated-scan flood cannot starve cheap balance traffic.
//
// The key of both maps is the request's canonical encoding itself
// (canister.RequestKey: method name and argument fields, at most
// canister.MaxRequestKeyLen bytes), so two requests meet in a layer only if
// they are the same request. A request with no key — a wrong-typed argument,
// or an encoding past the bound, which no valid request reaches — passes the
// layers by: it is admitted and executed like any other, never cached or
// coalesced, so nothing a caller sizes is retained and nothing skips
// admission.
//
// What the cache costs a query: a hit builds the encoding on its stack and
// probes the map with those bytes in place — no hash beyond the map's own, no
// allocation; a miss copies the encoding into a string once, for the flight
// and the fill, and if it finds room stores in one more probe; and a miss
// under capacity pressure — more keys offered than CacheEntries, the first to
// fill stay — is refused in O(1).
// The cache is walked only to sweep entries of older generations, and at
// most once per generation: a sweep that leaves it full is remembered until
// the generation moves, so a cold query pays for its execution and not for
// the cache being full.
//
// All layer state is keyed or guarded such that a response served from any
// layer is byte-identical to some fresh execution against the same stream
// generation — the property the differential harness asserts.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"icbtc/internal/canister"
	"icbtc/internal/ic"
)

// ErrBusy reports a query shed by admission control: the cost-class budget
// is exhausted. Clients back off and retry; the error is explicit so they
// can distinguish shedding from a failed execution.
var ErrBusy = errors.New("queryfleet: shed by admission control")

// Budget is one cost class's admission budget: a token bucket refilled at
// Rate executions per second up to Burst. Refill is driven by the virtual
// `now` each query carries, so shedding is deterministic under a seeded
// scheduler.
type Budget struct {
	Rate  float64
	Burst float64
}

// cacheEntry is one certified hot response, valid only while the fleet's
// stream generation still equals gen.
type cacheEntry struct {
	gen uint64
	rq  ic.RoutedQuery
}

// flightKey identifies one in-flight coalesced execution: the canonical
// request key bound to the stream generation it was started under, so a
// late waiter can never be handed a response computed before a tip move it
// already observed.
type flightKey struct {
	gen uint64
	key string
}

// flight is one coalesced execution: the leader executes, followers wait on
// done and return rq verbatim (same value, same signature bytes).
type flight struct {
	done    chan struct{}
	rq      ic.RoutedQuery
	waiters int
}

// bucket is one cost class's token-bucket state.
type bucket struct {
	rate, burst float64
	level       float64
	last        time.Time
	primed      bool
}

// serving holds the fleet's layer state. A layer that is off keeps a nil map
// (cache, flights, buckets) and is skipped before its lock is touched.
type serving struct {
	coalesce bool
	cacheCap int

	cacheMu sync.Mutex
	cache   map[string]cacheEntry
	// full says a sweep at generation fullGen left the cache at capacity,
	// every entry of that generation (see cacheFill).
	full    bool
	fullGen uint64

	flightMu sync.Mutex
	flights  map[flightKey]*flight

	budgetMu sync.Mutex
	buckets  map[canister.CostClass]*bucket
}

// newServing builds the layer state for a config.
func newServing(cfg Config) *serving {
	s := &serving{coalesce: cfg.Coalesce, cacheCap: cfg.CacheEntries}
	if cfg.CacheEntries > 0 {
		s.cache = make(map[string]cacheEntry, cfg.CacheEntries)
	}
	if cfg.Coalesce {
		s.flights = make(map[flightKey]*flight)
	}
	if len(cfg.Budgets) > 0 {
		s.buckets = make(map[canister.CostClass]*bucket, len(cfg.Budgets))
		for class, b := range cfg.Budgets {
			s.buckets[class] = &bucket{rate: b.Rate, burst: b.Burst}
		}
	}
	return s
}

// cacheGet returns the cached response for key if it was filled at the
// current stream generation. A stale-generation entry is never served: the
// generation bumps on every distributed frame, so a hit proves neither the
// tip nor the anchor has moved since the fill.
func (s *serving) cacheGet(gen uint64, key []byte) (ic.RoutedQuery, bool) {
	s.cacheMu.Lock()
	e, ok := s.cache[string(key)] // probed in place: the conversion does not allocate
	s.cacheMu.Unlock()
	if !ok || e.gen != gen {
		return ic.RoutedQuery{}, false
	}
	return e.rq, true
}

// cacheFill stores one certified response under the generation it was
// computed at, reporting whether the entry landed and whether the cache was
// swept for it. Under capacity pressure, entries from older generations are
// swept first (they can never be served again); if the cache is full of
// current-generation entries the fill is skipped — deterministic, and the hot
// keys that filled first stay resident. A sweep that leaves the cache full
// proves every entry is of its generation, which stays true until an entry of
// another generation is stored: fullGen remembers it, and until then every
// further fill at that generation is refused without looking at an entry.
func (s *serving) cacheFill(gen uint64, key string, rq ic.RoutedQuery) (stored, swept bool) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if _, exists := s.cache[key]; !exists && len(s.cache) >= s.cacheCap {
		if s.full && s.fullGen == gen {
			return false, false
		}
		for k, e := range s.cache {
			if e.gen != gen {
				delete(s.cache, k)
			}
		}
		if len(s.cache) >= s.cacheCap {
			s.full, s.fullGen = true, gen
			return false, true
		}
		swept = true
	}
	s.cache[key] = cacheEntry{gen: gen, rq: rq}
	if gen != s.fullGen {
		// A fill that raced a frame stores under a generation already
		// past; forgetting the mark lets the next fill sweep that dead
		// entry out instead of refusing around it.
		s.full = false
	}
	return true, swept
}

// CacheSize returns the number of resident cache entries (observability).
func (s *serving) CacheSize() int {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	return len(s.cache)
}

// join registers interest in one flight. The first caller per key becomes
// the leader (leader true, a fresh flight to complete); followers receive
// the existing flight to wait on.
func (s *serving) join(fk flightKey) (*flight, bool) {
	s.flightMu.Lock()
	if fl, ok := s.flights[fk]; ok {
		fl.waiters++
		s.flightMu.Unlock()
		return fl, false
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[fk] = fl
	s.flightMu.Unlock()
	return fl, true
}

// finish publishes the leader's result and releases the flight's waiters.
func (s *serving) finish(fk flightKey, fl *flight, rq ic.RoutedQuery) {
	s.flightMu.Lock()
	fl.rq = rq
	delete(s.flights, fk)
	s.flightMu.Unlock()
	close(fl.done)
}

// flightWaiters reports how many followers are parked on one flight (test
// observability; 0 when no flight is open for the key).
func (s *serving) flightWaiters(fk flightKey) int {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if fl, ok := s.flights[fk]; ok {
		return fl.waiters
	}
	return 0
}

// admit charges one execution against the method's cost-class bucket.
// Unbudgeted classes always admit. The bucket primes to its full burst on
// first use and refills from the virtual timestamps queries carry — no wall
// clock, so a seeded scheduler replays the same shed decisions.
func (s *serving) admit(class canister.CostClass, now time.Time) bool {
	if s.buckets == nil {
		return true
	}
	s.budgetMu.Lock()
	defer s.budgetMu.Unlock()
	b := s.buckets[class]
	if b == nil {
		return true
	}
	if !b.primed {
		b.level = b.burst
		b.last = now
		b.primed = true
	}
	if dt := now.Sub(b.last); dt > 0 {
		b.level += dt.Seconds() * b.rate
		if b.level > b.burst {
			b.level = b.burst
		}
		b.last = now
	}
	if b.level >= 1 {
		b.level--
		return true
	}
	return false
}

// FlightWaiters reports how many followers are parked on the open
// coalesced flight for one request at the current stream generation (0
// when none) — observability for tests and load drivers.
func (f *Fleet) FlightWaiters(method string, arg any) int {
	s := f.serving
	if !s.coalesce {
		return 0
	}
	m, ok := canister.MethodByName(method)
	if !ok {
		return 0
	}
	key, err := m.RequestKey(arg)
	if err != nil {
		return 0
	}
	return s.flightWaiters(flightKey{gen: f.gen.Load(), key: string(key.Bytes())})
}

// admitAndExecute is the tail of RouteQuery: charge admission, run the
// query, and fill the cache when the response provably belongs to the
// generation the caller keyed on. A caller without a key passes cacheable
// false.
func (f *Fleet) admitAndExecute(m *canister.MethodDesc, method string, arg any, now time.Time, gen uint64, key string, cacheable bool) ic.RoutedQuery {
	if !f.serving.admit(m.Cost, now) {
		f.met.shed.Inc()
		f.met.shedByClass.With(m.Cost.String()).Inc()
		return ic.RoutedQuery{Err: fmt.Errorf("%w: %s (cost class %s)", ErrBusy, method, m.Cost)}
	}
	rq, servedSeq, forwarded := f.executeQuery(method, arg, now)
	// Fill conditions: a clean response, computed either by the
	// authoritative canister (forwarded) or by a replica that had applied
	// exactly the frames of this generation (servedSeq == gen; tip-height
	// equality is NOT enough — a header-only frame moves the tip hash
	// without moving its height), and no frame has been distributed since
	// the caller loaded gen. A frame racing past the last check is still
	// safe: the entry is stored under gen, and cacheGet never serves an
	// entry whose generation is not current.
	if cacheable && rq.Err == nil && (forwarded || servedSeq == gen) && f.gen.Load() == gen {
		stored, swept := f.serving.cacheFill(gen, key, rq)
		if swept {
			f.met.cacheSweeps.Inc()
		}
		if stored {
			f.met.cacheFills.Inc()
		} else {
			f.met.cacheRefused.Inc()
		}
	}
	return rq
}
