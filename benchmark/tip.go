package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
)

// lateLimitNS is the latency limit of an offered query: answered more than
// 1 ms after it was due, it missed (and so does a wrong or failed one).
const lateLimitNS = int64(time.Millisecond)

// tipper drives the write path at the tip of a world: one block at a time
// through ParseBlock -> guarded ProcessPayload (the frame is fed to the
// replicas inside) -> ApplyPending on every replica -> a probe query that
// must show the new tip and the ledger's balance.
type tipper struct {
	w   *world
	clk clock
	// next is the height of the next block to fall due.
	next int64
	// caughtUp is the highest height every replica has applied; a query
	// sent after reading it must be answered at that tip or a later one.
	caughtUp atomic.Int64

	// feedParent and feedNS are written by the traced sink (same goroutine
	// as ProcessPayload, which publishes synchronously).
	tr         *tracer
	feedParent int
	feedNS     int64
}

// newTipper continues from the world's current tip.
func newTipper(w *world, clk clock) *tipper {
	tip := w.auth.TipHeight()
	t := &tipper{w: w, clk: clk, next: tip + 1}
	t.caughtUp.Store(tip)
	return t
}

// traceFeed wraps the fleet's frame sink so the time ProcessPayload spends
// publishing the frame is a child span of the payload, not payload self
// time.
func (t *tipper) traceFeed(tr *tracer) {
	t.tr = tr
	t.w.auth.SetStreamSink(func(f *canister.Frame) {
		s := t.clk.now()
		t.w.fleet.Feed(f)
		e := t.clk.now()
		t.feedNS = e - s
		t.tr.add("queryfleet.feed", t.next, t.feedParent, s, e)
	})
}

// stages is where one block's time went.
type stages struct {
	parse, payload, feed, apply, probe, total int64
	instr                                     uint64
	ok                                        bool
}

// step carries the next block from wire bytes to queryable on every replica.
func (t *tipper) step() (stages, error) {
	var st stages
	h := t.next
	fleet, tr := t.w.fleet, t.tr
	t0 := t.clk.now()
	root := tr.open("tip.block", h, -1, t0)

	block, err := btc.ParseBlock(t.w.fx.Wire[h-1])
	if err != nil {
		return st, fmt.Errorf("tip block %d: %w", h, err)
	}
	t1 := t.clk.now()
	tr.add("btc.parse_block", h, root, t0, t1)

	ctx := ic.NewCallContext(ic.KindUpdate, chainTime)
	payload := adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: block, Header: block.Header}}}
	t.feedNS = 0
	t.feedParent = tr.open("canister.process_payload", h, root, t1)
	if err := fleet.GuardAuthority(func() error { return t.w.auth.ProcessPayload(ctx, payload) }); err != nil {
		return st, fmt.Errorf("tip block %d: %w", h, err)
	}
	t2 := t.clk.now()
	tr.close(t.feedParent, t2)

	for i := 0; i < fleet.Replicas(); i++ {
		s := t.clk.now()
		if _, err := fleet.Replica(i).ApplyPending(-1); err != nil {
			return st, fmt.Errorf("tip block %d: %w", h, err)
		}
		if j := tr.add("queryfleet.apply_pending", h, root, s, t.clk.now()); j >= 0 {
			tr.spans[j].Attr = i
		}
	}
	t3 := t.clk.now()
	t.caughtUp.Store(h)

	probe := balanceRequest(t.w.fx, t.w.fx.Ledger.PaidAt(h))
	rq := fleet.RouteQuery(probe.method, probe.arg, "bench", chainTime)
	t4 := t.clk.now()
	tr.add("queryfleet.route_query", h, root, t3, t4)
	tr.close(root, t4)

	t.next++
	return stages{
		parse: t1 - t0, payload: t2 - t1 - t.feedNS, feed: t.feedNS, apply: t3 - t2, probe: t4 - t3, total: t4 - t0,
		instr: ctx.Meter.Total(),
		ok:    probe.check(t.w.fx.Ledger, &rq, h) && rq.TipHeight == h,
	}, nil
}

// tipRun is what one stretch of tip_mixed measured.
type tipRun struct {
	blockHist, blockLate Histogram // due -> probe answered; due -> producer started
	queryHist, queryLate Histogram // due -> answered, per query; due -> burst started, per burst
	onTime               []float64 // per second of schedule: queries answered within the limit
	blocks, blocksFailed int64
	queries, queryFailed int64
	instr                uint64
}

// run offers n blocks, one every tipPeriod (open loop, each timed from its
// due instant), while one goroutine offers table/sched open loop at
// queryRate: every millisecond a burst of queryRate/1000 queries falls due,
// and each is timed from that due instant — a closed loop would hide a
// stall, one blocked query replacing thousands. Between bursts the generator
// sleeps, so the program under test keeps both cores of a two-core box.
func (t *tipper) run(n int, table []request, sched []uint16, qtr *tracer) (*tipRun, error) {
	sc := t.w.sc
	res := &tipRun{onTime: make([]float64, n*int(sc.tipPeriod/time.Millisecond)/1000+2)}
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := t.clk.now() + int64(time.Millisecond)

	wg.Add(1)
	go func() {
		defer wg.Done()
		burst := sc.queryRate / 1000
		l := t.w.fx.Ledger
		for b := 0; !stop.Load(); b++ {
			due := start + int64(b)*int64(time.Millisecond)
			if d := due - t.clk.now(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			sent := t.clk.now()
			res.queryLate.Record(sent - due)
			for i := b * burst; i < (b+1)*burst; i++ {
				minTip := t.caughtUp.Load()
				req := &table[sched[i%len(sched)]]
				rq := t.w.fleet.RouteQuery(req.method, req.arg, "bench", chainTime)
				ok := req.check(l, &rq, minTip)
				done := t.clk.now()
				res.queryHist.Record(done - due)
				qtr.add("queryfleet.route_query", int64(i), -1, sent, done)
				sent = done
				res.queries++
				if !ok {
					res.queryFailed++
				} else if w := i / sc.queryRate; done-due <= lateLimitNS && w < len(res.onTime) {
					res.onTime[w]++
				}
			}
		}
	}()

	var runErr error
	for k := 0; k < n; k++ {
		due := start + int64(k)*int64(sc.tipPeriod)
		if d := due - t.clk.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		res.blockLate.Record(t.clk.now() - due)
		st, err := t.step()
		if err != nil {
			runErr = err
			break
		}
		res.blockHist.Record(t.clk.now() - due)
		res.instr += st.instr
		res.blocks++
		if !st.ok {
			res.blocksFailed++
		}
	}
	// Let the schedule run to the end of the last block's period, so every
	// one-second window but the cut-off last is complete.
	if d := start + int64(n)*int64(sc.tipPeriod) - t.clk.now(); d > 0 && runErr == nil {
		time.Sleep(time.Duration(d))
	}
	stop.Store(true)
	wg.Wait()
	if full := int(res.queries / int64(sc.queryRate)); full < len(res.onTime) {
		res.onTime = res.onTime[:full]
	}
	return res, runErr
}

// setupTip builds the world, warms the hot keys and carries the first
// tipWarm blocks through the producer loop: the whole of setup_s.
func setupTip(fx *Fixture, sc scale, clk clock, table []request, sched []uint16) (*world, int64, int64, error) {
	w, err := newWorld(fx, sc, true)
	if err != nil {
		return nil, 0, 0, err
	}
	attempted, failed := warm(w.fleet, fx.Ledger, table, sched, int64(sc.preload))
	t := newTipper(w, clk)
	for i := 0; i < sc.tipWarm; i++ {
		st, err := t.step()
		if err != nil {
			w.close()
			return nil, 0, 0, err
		}
		attempted++
		if !st.ok {
			failed++
		}
	}
	return w, attempted, failed, nil
}

// runTipMixed measures reads beside writes.
func runTipMixed(fx *Fixture, sc scale, secs float64, traced bool) (*outcome, error) {
	clk := newClock()
	table, sched := hotTable(fx, sc, sc.queryRate)
	out := &outcome{values: map[string]float64{}}
	w, err := setUpFleet(fx, sc, traced, clk, out, func() (*world, int64, int64, error) {
		return setupTip(fx, sc, clk, table, sched)
	})
	if err != nil {
		return nil, err
	}
	defer w.close()
	t := newTipper(w, clk)
	before := countFleet(w.fleet)

	n := int(secs / sc.tipPeriod.Seconds())
	if n < 1 {
		n = 1
	}
	var run *tipRun
	if !traced {
		if run, err = t.run(n, table, sched, nil); err != nil {
			return nil, err
		}
	} else {
		ref, err := t.run((n+1)/2, table, sched, nil)
		if err != nil {
			return nil, err
		}
		btr, qtr := newTracer(), newTracer()
		t.traceFeed(btr)
		if run, err = t.run((n+1)/2, table, sched, qtr); err != nil {
			return nil, err
		}
		out.tracers = []*tracer{btr, qtr}
		out.values["bench.trace_overhead_pct"] = 100 * (run.blockHist.Quantile(50) - ref.blockHist.Quantile(50)) / ref.blockHist.Quantile(50)
		out.attempted += ref.blocks + ref.queries
		out.failed += ref.blocksFailed + ref.queryFailed
	}
	out.attempted += run.blocks + run.queries
	out.failed += run.blocksFailed + run.queryFailed

	// End-of-run identity: every replica holds the authority's exact state.
	want, err := w.auth.Snapshot()
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.fleet.Replicas(); i++ {
		got, err := w.fleet.Replica(i).Canister().Snapshot()
		if err != nil {
			return nil, err
		}
		out.attempted++
		if !bytes.Equal(got, want) {
			out.failed++
		}
	}

	onTime := median(run.onTime)
	if len(run.onTime) == 0 {
		// A run shorter than one second of schedule has no complete window.
		onTime = float64(run.queries) * (1 - run.queryHist.ShareAbove(uint64(lateLimitNS))) / (float64(n) * sc.tipPeriod.Seconds())
	}
	out.values["throughput_per_s"] = onTime
	out.values["latency_p50_us"] = run.blockHist.Quantile(50) / 1e3
	out.values["kinstr_per_op"] = float64(run.instr) / float64(run.blocks) / 1e3
	out.values["query_p99_us"] = run.queryHist.Quantile(99) / 1e3
	out.values["query_over_1ms_share"] = run.queryHist.ShareAbove(uint64(lateLimitNS))
	out.values["bench.block_to_queryable_ms_p95"] = run.blockHist.Quantile(95) / 1e6
	out.values["bench.query_from_due_us_p95"] = run.queryHist.Quantile(95) / 1e3
	out.values["bench.query_from_due_us_p99"] = run.queryHist.Quantile(99) / 1e3
	out.values["bench.block_generator_late_ms_p95"] = run.blockLate.Quantile(95) / 1e6
	out.values["bench.query_generator_late_us_p99"] = run.queryLate.Quantile(99) / 1e3
	fleetCounters(out.values, w.fleet, before)
	return out, nil
}
