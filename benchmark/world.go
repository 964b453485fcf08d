package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
	"icbtc/internal/ingest"
	"icbtc/internal/queryfleet"
)

// Rules for every timed section: no modeled sleeps (ExecRate 0), no virtual
// clock, obs tracer off, no signer (a 13-node threshold signature costs
// ~370 ms here and would be >99.9 % of any executed query; it is a layer
// metric only), default GOMAXPROCS, ingest at ingest.DefaultWorkers().

// scale fixes how much work a run does. Window sizes are operation counts,
// never wall time, so both sides of a comparison do identical work per
// window; only the number of windows follows --seconds.
type scale struct {
	preload   int // blocks every workload starts from
	txs       int // transactions per block
	setupReps int // set-ups per untraced run; setup_s is their median
	syncBatch int // blocks per SyncWire call of an ingest_sync cycle

	hotAddrs   int // hot set size of query_hot and tip_mixed
	hotWindow  int // queries per throughput window, query_hot
	coldWindow int // queries per throughput window, query_cold

	tipWarm   int           // tip blocks applied during set-up (first pass of the loop)
	tipPeriod time.Duration // a block falls due this often
	queryRate int           // offered queries per second beside the blocks

	// Layer probes (traced run only).
	probeTip   int     // tip blocks replayed with spans
	probeReps  int     // repetitions of each state-transfer probe
	signReps   int     // threshold signatures timed
	probeSlice float64 // seconds per closed-loop probe
}

var fullScale = scale{
	preload:    preloadBlocks,
	txs:        txsPerBlock,
	setupReps:  3,
	syncBatch:  100,
	hotAddrs:   64,
	hotWindow:  1 << 19,
	coldWindow: 1 << 14,
	tipWarm:    5,
	tipPeriod:  100 * time.Millisecond,
	queryRate:  20000,
	probeTip:   30,
	probeReps:  3,
	signReps:   5,
	probeSlice: 0.5,
}

// tipBlocks is how many blocks beyond the preload a tip_mixed run of the
// given length consumes.
func (sc scale) tipBlocks(seconds float64) int {
	return sc.tipWarm + int(seconds/sc.tipPeriod.Seconds()) + 1
}

// chainTime is the IC time payloads are processed at: later than every
// generated block timestamp, as the header validation requires.
var chainTime = time.Unix(1_700_000_000, 0).UTC()

// clock reads monotonic nanoseconds with a single vDSO call (time.Now makes
// two); every timed section uses it.
type clock struct{ base time.Time }

func newClock() clock                 { return clock{base: time.Now()} }
func (c clock) now() int64            { return int64(time.Since(c.base)) }
func seconds(ns int64) float64        { return float64(ns) / 1e9 }
func ingestConfig() ingest.Config     { return ingest.Config{Workers: ingest.DefaultWorkers()} }
func canisterConfig() canister.Config { return canister.DefaultConfig(btc.Regtest) }

// syncPreload carries the first sc.preload wire blocks into a fresh
// canister through the pipelined catch-up path and returns the canister and
// the instructions it metered.
func syncPreload(fx *Fixture, sc scale) (*canister.BitcoinCanister, uint64, error) {
	can := canister.New(canisterConfig())
	ctx := ic.NewCallContext(ic.KindUpdate, chainTime)
	stats, err := can.SyncWire(ctx, fx.Wire[:sc.preload], ingestConfig())
	if err != nil {
		return nil, 0, fmt.Errorf("preload sync: %w", err)
	}
	if stats.Rejected != 0 || stats.Accepted != sc.preload {
		return nil, 0, fmt.Errorf("preload sync: accepted %d, rejected %d of %d blocks", stats.Accepted, stats.Rejected, sc.preload)
	}
	return can, ctx.Meter.Total(), nil
}

// fleetConfig is the serving configuration of every fleet workload.
func fleetConfig(layered bool) queryfleet.Config {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 2
	cfg.QueryConcurrency = 1 // the IC executes a canister's queries one at a time per replica
	if layered {
		cfg.Coalesce = true
		cfg.CacheEntries = 512
	}
	return cfg
}

// world is a preloaded authoritative canister with a hydrated fleet.
type world struct {
	fx    *Fixture
	sc    scale
	auth  *canister.BitcoinCanister
	fleet *queryfleet.Fleet
}

// newWorld preloads the chain and hydrates a fleet from it.
func newWorld(fx *Fixture, sc scale, layered bool) (*world, error) {
	auth, _, err := syncPreload(fx, sc)
	if err != nil {
		return nil, err
	}
	fleet, err := queryfleet.New(auth, fleetConfig(layered))
	if err != nil {
		return nil, err
	}
	return &world{fx: fx, sc: sc, auth: auth, fleet: fleet}, nil
}

func (w *world) close() { w.fleet.Close() }

// heapLive forces a collection and returns the live heap.
func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

type reqKind uint8

const (
	reqBalance reqKind = iota
	reqUTXOs
	reqFees
)

// request is one distinct query with its argument boxed once (the timed
// loop allocates nothing for it) and the ledger's answer memoized for the
// tip the last response was served at.
type request struct {
	method string
	arg    any
	kind   reqKind
	addr   int // population index; unused for fees
	limit  int // page size asked for

	memo                bool
	memoTip, memoAnchor int64
	wantBalance         int64
	wantCount           int
	wantMin             int64
	wantMax             int64
}

func balanceRequest(fx *Fixture, addr int) request {
	return request{method: "get_balance", kind: reqBalance, addr: addr,
		arg: canister.GetBalanceArgs{Address: fx.Addresses[addr]}}
}

// utxosRequest asks for one page; limit 0 is the canister's default page
// (1000 UTXOs, the most expensive request the API serves).
func utxosRequest(fx *Fixture, addr, limit int) request {
	r := request{method: "get_utxos", kind: reqUTXOs, addr: addr, limit: limit,
		arg: canister.GetUTXOsArgs{Address: fx.Addresses[addr], Limit: limit}}
	if limit == 0 {
		r.limit = canisterConfig().PageLimit
	}
	return r
}

func feesRequest() request {
	return request{method: "get_current_fee_percentiles", kind: reqFees}
}

// check compares one response with the ledger. minTip is the lowest tip a
// correct response may have been served at.
func (r *request) check(l *Ledger, rq *ic.RoutedQuery, minTip int64) bool {
	if rq.Err != nil || rq.TipHeight < minTip {
		return false
	}
	if !r.memo || r.memoTip != rq.TipHeight || r.memoAnchor != rq.AnchorHeight {
		r.memo, r.memoTip, r.memoAnchor = true, rq.TipHeight, rq.AnchorHeight
		switch r.kind {
		case reqFees:
			r.wantMin, r.wantMax, _ = l.FeeRange(rq.AnchorHeight, rq.TipHeight)
		default:
			r.wantBalance, r.wantCount = l.At(r.addr, rq.TipHeight)
		}
	}
	switch r.kind {
	case reqBalance:
		v, ok := rq.Value.(int64)
		return ok && v == r.wantBalance
	case reqUTXOs:
		res, ok := rq.Value.(*canister.GetUTXOsResult)
		if !ok || res == nil || res.TipHeight != rq.TipHeight {
			return false
		}
		if r.wantCount > r.limit {
			return len(res.UTXOs) == r.limit
		}
		var sum int64
		for i := range res.UTXOs {
			sum += res.UTXOs[i].Value
		}
		return len(res.UTXOs) == r.wantCount && sum == r.wantBalance
	default:
		// Any percentile rule puts the lowest priceable fee rate at 0 and
		// the highest at 100; with nothing priceable both are 0.
		p, ok := rq.Value.([]int64)
		return ok && len(p) == canister.FeePercentilesCount && p[0] == r.wantMin && p[len(p)-1] == r.wantMax
	}
}

// hotTable builds query_hot's distinct requests (64 seeded hot addresses,
// each as a 10-UTXO page and a balance, plus the fee query) and a schedule
// of n request ids: Zipf s=1.5 over the hot set, 60/30/10
// get_utxos/get_balance/get_current_fee_percentiles.
func hotTable(fx *Fixture, sc scale, n int) ([]request, []uint16) {
	rng := rand.New(rand.NewSource(fx.Seed*31 + 1))
	hot := rng.Perm(len(fx.Addresses))[:sc.hotAddrs]
	table := make([]request, 0, 2*len(hot)+1)
	for _, a := range hot {
		table = append(table, utxosRequest(fx, a, 10), balanceRequest(fx, a))
	}
	table = append(table, feesRequest())
	zipf := rand.NewZipf(rng, 1.5, 1, uint64(len(hot)-1))
	sched := make([]uint16, n)
	for i := range sched {
		rank := int(zipf.Uint64())
		switch m := rng.Intn(10); {
		case m < 6:
			sched[i] = uint16(2 * rank)
		case m < 9:
			sched[i] = uint16(2*rank + 1)
		default:
			sched[i] = uint16(len(table) - 1)
		}
	}
	return table, sched
}

// coldTable builds query_cold's 2000 distinct requests (every address as a
// default page and a balance) and a schedule of n ids: uniform over the
// addresses, 60/40 get_utxos/get_balance.
func coldTable(fx *Fixture, n int) ([]request, []uint16) {
	rng := rand.New(rand.NewSource(fx.Seed*31 + 2))
	table := make([]request, 0, 2*len(fx.Addresses))
	for a := range fx.Addresses {
		table = append(table, utxosRequest(fx, a, 0), balanceRequest(fx, a))
	}
	sched := make([]uint16, n)
	for i := range sched {
		a := rng.Intn(len(fx.Addresses))
		if rng.Intn(10) < 6 {
			sched[i] = uint16(2 * a)
		} else {
			sched[i] = uint16(2*a + 1)
		}
	}
	return table, sched
}
