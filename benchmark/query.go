package main

import (
	"runtime"
	"sync"

	"icbtc/internal/queryfleet"
)

// queryRun is what one closed-loop client measured.
type queryRun struct {
	hist      Histogram // every query of the run
	win       Histogram // the window in progress
	windows   []float64 // queries per second, one entry per equal-count window
	windowP50 []float64 // median query latency in nanoseconds, per window
	attempted int64
	failed    int64
	instr     uint64 // instructions the responses reported
}

// qps is the run's throughput: that of its least disturbed windows.
func (r *queryRun) qps() float64 { return quiet(r.windows, "higher") }

// maxWindows bounds the preallocated per-window log (a run cut into more
// windows than this stops early, which no sane --seconds reaches).
const maxWindows = 4096

// closedLoop is one client that waits for each reply before sending the
// next request (a canister calling the API). It replays sched — one
// equal-count, equal-content window per pass — until secs have elapsed, at
// least minWindows times. Each query's latency is the full iteration: route,
// check against the ledger, one clock read.
func closedLoop(fleet *queryfleet.Fleet, l *Ledger, table []request, sched []uint16, tip int64, secs float64, minWindows int, clk clock, tr *tracer) *queryRun {
	run := &queryRun{windows: make([]float64, 0, maxWindows), windowP50: make([]float64, 0, maxWindows)}
	start := clk.now()
	prev := start
	var id int64
	for len(run.windows) < maxWindows && (len(run.windows) < minWindows || seconds(prev-start) < secs) {
		winStart := prev
		for _, r := range sched {
			req := &table[r]
			rq := fleet.RouteQuery(req.method, req.arg, "bench", chainTime)
			if !req.check(l, &rq, tip) {
				run.failed++
			}
			run.instr += rq.Instructions
			t := clk.now()
			run.win.Record(t - prev)
			if tr != nil {
				tr.add("queryfleet.route_query", id, -1, prev, t)
				id++
			}
			prev = t
		}
		run.attempted += int64(len(sched))
		run.windows = append(run.windows, float64(len(sched))/seconds(prev-winStart))
		run.windowP50 = append(run.windowP50, run.win.Quantile(50))
		run.win.Drain(&run.hist)
		prev = clk.now()
	}
	return run
}

// warm sends every distinct request once (first touch of every cache key)
// and then one pass of the schedule (first pass of the loop), checking the
// answers; it returns how many were wrong.
func warm(fleet *queryfleet.Fleet, l *Ledger, table []request, sched []uint16, tip int64) (attempted, failed int64) {
	for i := range table {
		rq := fleet.RouteQuery(table[i].method, table[i].arg, "bench", chainTime)
		attempted++
		if !table[i].check(l, &rq, tip) {
			failed++
		}
	}
	for _, r := range sched {
		rq := fleet.RouteQuery(table[r].method, table[r].arg, "bench", chainTime)
		attempted++
		if !table[r].check(l, &rq, tip) {
			failed++
		}
	}
	return attempted, failed
}

// setUpFleet runs build — the whole set-up of a fleet workload: preload,
// fleet hydration, warm-up — sc.setupReps times (once when traced), keeps
// the last world and reports the median set-up time and the size of the
// state that stays live.
func setUpFleet(fx *Fixture, sc scale, traced bool, clk clock, out *outcome, build func() (*world, int64, int64, error)) (*world, error) {
	base := heapLive()
	reps := sc.setupReps
	if traced {
		reps = 1
	}
	var setups []float64
	var w *world
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
			w = nil
		}
		runtime.GC()
		t0 := clk.now()
		nw, attempted, failed, err := build()
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(clk.now()-t0))
		out.attempted += attempted
		out.failed += failed
		w = nw
	}
	snap, err := w.auth.Snapshot()
	if err != nil {
		w.close()
		return nil, err
	}
	snapBytes := len(snap)
	snap = nil
	heap := heapLive() - base
	live := float64(fx.Ledger.LiveUTXOs(w.auth.TipHeight()))
	out.values["setup_s"] = median(setups)
	out.values["snapshot_bytes_per_utxo"] = float64(snapBytes) / live
	out.values["heap_bytes_per_utxo"] = float64(heap) / live
	return w, nil
}

// runQueries measures one static-tip query workload: query_hot, or
// query_cold.
func runQueries(fx *Fixture, sc scale, hot bool, secs float64, traced bool) (*outcome, error) {
	clk := newClock()
	table, sched := coldTable(fx, sc.coldWindow)
	if hot {
		table, sched = hotTable(fx, sc, sc.hotWindow)
	}
	tip := int64(sc.preload)
	out := &outcome{values: map[string]float64{}}
	w, err := setUpFleet(fx, sc, traced, clk, out, func() (*world, int64, int64, error) {
		w, err := newWorld(fx, sc, true)
		if err != nil {
			return nil, 0, 0, err
		}
		attempted, failed := warm(w.fleet, fx.Ledger, table, sched, tip)
		return w, attempted, failed, nil
	})
	if err != nil {
		return nil, err
	}
	defer w.close()
	before := countFleet(w.fleet)

	var run *queryRun
	if !traced {
		run = closedLoop(w.fleet, fx.Ledger, table, sched, tip, secs, 3, clk, nil)
	} else {
		// The traced run splits its time: an untraced half gives the
		// reference the traced half's overhead is taken against.
		ref := closedLoop(w.fleet, fx.Ledger, table, sched, tip, secs/2, 2, clk, nil)
		tr := newTracer()
		run = closedLoop(w.fleet, fx.Ledger, table, sched, tip, secs/2, 2, clk, tr)
		out.tracers = []*tracer{tr}
		out.values["bench.trace_overhead_pct"] = 100 * (ref.qps() - run.qps()) / ref.qps()
		out.attempted += ref.attempted
		out.failed += ref.failed
	}
	out.attempted += run.attempted
	out.failed += run.failed
	out.values["throughput_per_s"] = run.qps()
	out.values["latency_p50_us"] = quiet(run.windowP50, "lower") / 1e3
	out.values["kinstr_per_op"] = float64(run.instr) / float64(run.attempted) / 1e3
	out.values["query_p99_us"] = run.hist.Quantile(99) / 1e3
	if hot {
		out.values["bench.query_hot_p99_us"] = run.hist.Quantile(99) / 1e3
	}
	fleetCounters(out.values, w.fleet, before)
	return out, nil
}

// fleetCount is a fleet's counters at one instant.
type fleetCount struct {
	stats queryfleet.Stats
	fills uint64
}

func countFleet(fleet *queryfleet.Fleet) fleetCount {
	return fleetCount{stats: fleet.Stats(), fills: fleet.Metrics().Counter("fleet_cache_fills_total").Value()}
}

// fleetCounters reports what a fleet counted since before as per-layer
// metrics. With one client the counts are exact for a seed.
func fleetCounters(values map[string]float64, fleet *queryfleet.Fleet, before fleetCount) {
	now := countFleet(fleet)
	st, b := now.stats, before.stats
	hits := st.CacheHits - b.CacheHits
	routed := hits + (st.Served - b.Served) + (st.Forwarded - b.Forwarded) + (st.Coalesced - b.Coalesced)
	values["queryfleet.cache_hit_ratio"] = 0
	if routed > 0 {
		values["queryfleet.cache_hit_ratio"] = float64(hits) / float64(routed)
	}
	values["queryfleet.cache_fills"] = float64(now.fills - before.fills)
	values["queryfleet.coalesced"] = float64(st.Coalesced - b.Coalesced)
	values["queryfleet.served"] = float64(st.Served - b.Served)
	values["queryfleet.forwarded"] = float64(st.Forwarded - b.Forwarded)
	values["queryfleet.frames"] = float64(st.Frames - b.Frames)
}

// parallelClosedLoops runs n closed-loop clients at once, each with its own
// copy of the request table and its own recorder, and returns their summed
// throughput.
func parallelClosedLoops(n int, fleet *queryfleet.Fleet, l *Ledger, table []request, sched []uint16, tip int64, secs float64, clk clock) (qps float64, attempted, failed int64) {
	runs := make([]*queryRun, n)
	var wg sync.WaitGroup
	for i := range runs {
		own := append([]request(nil), table...)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i] = closedLoop(fleet, l, own, sched, tip, secs, 2, clk, nil)
		}(i)
	}
	wg.Wait()
	for _, r := range runs {
		qps += r.qps()
		attempted += r.attempted
		failed += r.failed
	}
	return qps, attempted, failed
}
