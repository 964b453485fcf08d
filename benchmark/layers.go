package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
	"icbtc/internal/ingest"
	"icbtc/internal/queryfleet"
	"icbtc/internal/statecodec"
	"icbtc/internal/tecdsa"
	"icbtc/internal/utxo"
)

// Layer probes: every layer on the two end-to-end paths, timed from outside
// by calling its public functions on the fixture. They run in the traced
// run only, after the workload, on a world of their own, so they are the
// same on every workload. Which end-to-end metric each should move is
// tabulated in README.md.

// samples collects per-call durations and reports their median.
type samples []float64

func (s *samples) time(clk clock, f func()) {
	t := clk.now()
	f()
	*s = append(*s, float64(clk.now()-t))
}

func (s samples) median() float64 { return median(s) }

// perCallNS times batches of calls of f, for calls too short to time one at
// a time, and returns the median batch's nanoseconds per call.
func perCallNS(clk clock, batches, batch int, f func(i int)) float64 {
	var s samples
	for b := 0; b < batches; b++ {
		s.time(clk, func() {
			for i := 0; i < batch; i++ {
				f(b*batch + i)
			}
		})
	}
	return s.median() / float64(batch)
}

// mallocs counts the heap allocations f makes.
func mallocs(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

type prober struct {
	fx     *Fixture
	sc     scale
	clk    clock
	values map[string]float64
	// checked and wrong count the probes' own answers against the ledger.
	checked, wrong int64
}

// runLayerProbes fills values with every probe-derived per-layer metric.
func runLayerProbes(fx *Fixture, sc scale, values map[string]float64) (checked, wrong int64, err error) {
	p := &prober{fx: fx, sc: sc, clk: newClock(), values: values}
	set, err := p.blockLayers()
	if err != nil {
		return 0, 0, err
	}
	p.setCodec(set)
	set = nil
	p.pipeline()
	p.signing()
	if err := p.servingLayers(); err != nil {
		return 0, 0, err
	}
	return p.checked, p.wrong, nil
}

// blockLayers replays the preload blocks into a standalone UTXO set, timing
// btc parse/hash and utxo prepare/apply per block on the way.
func (p *prober) blockLayers() (*utxo.Set, error) {
	var parse, parseFast, txid, merkle, prepare, apply samples
	var parseAllocs, applyAllocs samples
	set := utxo.New(btc.Regtest)
	ids := btc.NewScriptIDCache(btc.Regtest)
	for i, raw := range p.fx.Wire[:p.sc.preload] {
		height := int64(i + 1)
		var block *btc.Block
		var err error
		parseFast.time(p.clk, func() { block, err = btc.ParseBlockFast(raw) })
		if err != nil {
			return nil, fmt.Errorf("probe block %d: %w", height, err)
		}
		// The allocating parser and the hashing it defers are sampled on
		// every eighth block; the fast parser above hashes as it parses.
		if i%8 == 0 {
			var slow *btc.Block
			parse.time(p.clk, func() { slow, err = btc.ParseBlock(raw) })
			if err != nil {
				return nil, fmt.Errorf("probe block %d: %w", height, err)
			}
			parseAllocs = append(parseAllocs, mallocs(func() { _, _ = btc.ParseBlock(raw) }))
			var hashes []btc.Hash
			txid.time(p.clk, func() { hashes = slow.TxIDs() })
			merkle.time(p.clk, func() { btc.MerkleRootFromHashes(hashes) })
		}
		prepare.time(p.clk, func() { utxo.PrepareBlockDelta(block, height, ids) })
		if i%8 == 0 {
			applyAllocs = append(applyAllocs, mallocs(func() { set.ApplyBlockIngest(block, height) }))
		} else {
			apply.time(p.clk, func() { set.ApplyBlockIngest(block, height) })
		}
	}
	p.values["btc.parse_block_us"] = parse.median() / 1e3
	p.values["btc.parse_block_fast_us"] = parseFast.median() / 1e3
	p.values["btc.parse_allocs_per_block"] = parseAllocs.median()
	p.values["btc.txid_hash_us"] = txid.median() / 1e3
	p.values["btc.merkle_root_us"] = merkle.median() / 1e3
	p.values["utxo.prepare_delta_us"] = prepare.median() / 1e3
	p.values["utxo.apply_block_us"] = apply.median() / 1e3
	p.values["utxo.apply_allocs_per_block"] = applyAllocs.median()

	// One page off the ordered index of the largest bucket.
	big := p.bigAddress()
	var page samples
	for i := 0; i < 200; i++ {
		page.time(p.clk, func() { _, _, _, _ = set.MergedPage(p.fx.Addresses[big], nil, nil, nil, canisterConfig().PageLimit) })
	}
	p.values["utxo.merged_page_us"] = page.median() / 1e3
	return set, nil
}

// bigAddress returns the address holding the most UTXOs at the preload tip
// (at full scale it holds well over a page of 1000).
func (p *prober) bigAddress() int {
	best, bestCount := 0, -1
	for a := range p.fx.Addresses {
		if _, c := p.fx.Ledger.At(a, int64(p.sc.preload)); c > bestCount {
			best, bestCount = a, c
		}
	}
	return best
}

// setCodec times the UTXO set's encoder and its two decoders.
func (p *prober) setCodec(set *utxo.Set) {
	const magic = "icbtc-bench-set"
	var enc, dec, decPar samples
	var data []byte
	for i := 0; i < p.sc.probeReps; i++ {
		enc.time(p.clk, func() {
			e := statecodec.NewEncoder(magic, 1, set.Len()*60)
			set.EncodeTo(e)
			data = e.Finish()
		})
		dec.time(p.clk, func() {
			if d, err := statecodec.NewDecoder(data, magic, 1); err == nil {
				_, _ = utxo.DecodeSet(d)
			}
		})
		decPar.time(p.clk, func() {
			if d, err := statecodec.NewDecoder(data, magic, 1); err == nil {
				_, _ = utxo.DecodeSetParallel(d, ingest.DefaultWorkers())
			}
		})
	}
	p.values["utxo.encode_set_ms"] = enc.median() / 1e6
	p.values["utxo.decode_set_ms"] = dec.median() / 1e6
	p.values["utxo.decode_set_parallel_ms"] = decPar.median() / 1e6
}

// pipeline times the ingest pipeline's own overhead and what it buys.
func (p *prober) pipeline() {
	const items = 1 << 16
	var over samples
	for i := 0; i < p.sc.probeReps; i++ {
		over.time(p.clk, func() {
			_ = ingest.Map(items, ingestConfig(), func(_, i int) int { return i }, func(int, int) error { return nil })
		})
	}
	p.values["ingest.map_overhead_ns"] = over.median() / items

	n := p.sc.preload / 3
	sync := func(workers int) float64 {
		var s samples
		for i := 0; i < p.sc.probeReps; i++ {
			s.time(p.clk, func() {
				can := canister.New(canisterConfig())
				_, _ = can.SyncWire(ic.NewCallContext(ic.KindUpdate, chainTime), p.fx.Wire[:n], ingest.Config{Workers: workers})
			})
		}
		return s.median()
	}
	serial, piped := sync(1), sync(ingest.DefaultWorkers())
	p.values["canister.sync_wire_serial_blocks_per_s"] = float64(n) / (serial / 1e9)
	p.values["ingest.pipeline_speedup"] = serial / piped
}

// signing times what certification would add: the response digest and one
// 13-node threshold Schnorr signature. Nothing pays it today (no signer).
func (p *prober) signing() {
	env := ic.CertifiedQuery{Method: "get_balance", Value: int64(123456789), AnchorHeight: 595, TipHeight: 600}
	p.values["ic.response_digest_ns"] = perCallNS(p.clk, 20, 1000, func(int) { ic.ResponseDigest(env, nil) })
	committee, err := tecdsa.NewCommittee(13, 4, rand.New(rand.NewSource(p.fx.Seed)))
	var sign samples
	if err == nil {
		digest := ic.ResponseDigest(env, nil)
		for i := 0; i < p.sc.signReps; i++ {
			sign.time(p.clk, func() { _, _ = committee.SignSchnorr(digest[:]) })
		}
	}
	p.values["tecdsa.sign_schnorr_ms"] = sign.median() / 1e6
}

// servingLayers times state transfer, the canister read path, the routing
// layers, the per-block write path on shadow canisters, and a sequential
// replay of the tip with spans.
func (p *prober) servingLayers() error {
	fx, sc, clk := p.fx, p.sc, p.clk
	w, err := newWorld(fx, sc, true)
	if err != nil {
		return err
	}
	defer w.close()
	tip := int64(sc.preload)

	// State transfer.
	var snapT, restoreT, restoreSerialT, hydrateT samples
	var snap []byte
	for i := 0; i < p.sc.probeReps; i++ {
		snapT.time(clk, func() { snap, err = w.auth.Snapshot() })
		if err != nil {
			return err
		}
		restoreT.time(clk, func() { _, err = canister.RestoreSnapshotParallel(snap, ingestConfig()) })
		if err != nil {
			return err
		}
		restoreSerialT.time(clk, func() { _, err = canister.RestoreSnapshot(snap) })
		if err != nil {
			return err
		}
		hydrateT.time(clk, func() { err = w.fleet.HydrateReplica(1) })
		if err != nil {
			return err
		}
	}
	p.values["snapshot_ms"] = snapT.median() / 1e6
	p.values["hydrate_ms"] = restoreT.median() / 1e6
	p.values["canister.restore_serial_ms"] = restoreSerialT.median() / 1e6
	p.values["queryfleet.hydrate_replica_ms"] = hydrateT.median() / 1e6

	// Canister read path, directly on a replica's canister. get_balance is
	// taken warm (its per-tip memo filled), the regime route_bare runs in.
	can := w.fleet.Replica(0).Canister()
	query := func(r *request) ic.RoutedQuery {
		ctx := ic.NewCallContext(ic.KindQuery, chainTime)
		v, err := can.Query(ctx, r.method, r.arg)
		return ic.RoutedQuery{Value: v, Err: err, Instructions: ctx.Meter.Total(), TipHeight: tip, AnchorHeight: can.AnchorHeight()}
	}
	balances := make([]request, len(fx.Addresses))
	for a := range balances {
		balances[a] = balanceRequest(fx, a)
		rq := query(&balances[a])
		p.check(&balances[a], &rq, tip)
	}
	p.values["canister.get_balance_ns"] = perCallNS(clk, 20, len(balances), func(i int) { query(&balances[i%len(balances)]) })
	big := p.bigAddress()
	page10, page1000 := utxosRequest(fx, big, 10), utxosRequest(fx, big, 0)
	var p10, p1000 samples
	var kinstr float64
	for i := 0; i < 200; i++ {
		p10.time(clk, func() { query(&page10) })
		p1000.time(clk, func() { kinstr = float64(query(&page1000).Instructions) / 1e3 })
	}
	rq := query(&page1000)
	p.check(&page1000, &rq, tip)
	p.values["canister.get_utxos_page10_us"] = p10.median() / 1e3
	p.values["canister.get_utxos_page1000_us"] = p1000.median() / 1e3
	p.values["canister.get_utxos_kinstr"] = kinstr
	// The replicated path bypasses the per-tip fee memo, so every call pays
	// the scan of the unstable blocks.
	var fees samples
	for i := 0; i < 20; i++ {
		fees.time(clk, func() {
			_, _ = can.Update(ic.NewCallContext(ic.KindUpdate, chainTime), "get_current_fee_percentiles", nil)
		})
	}
	p.values["canister.get_fee_percentiles_us"] = fees.median() / 1e3

	// Routing layers. The cold table's warm-up fills the 512-entry cache
	// with the first 256 addresses' keys; under first-fill-wins every later
	// address then misses on every call.
	method, _ := canister.MethodByName("get_balance")
	p.values["canister.request_key_ns"] = perCallNS(clk, 20, 1000, func(i int) { _, _ = method.RequestKey(balances[i%len(balances)].arg) })
	table, sched := coldTable(fx, len(fx.Addresses))
	a, f := warm(w.fleet, fx.Ledger, table, sched, tip)
	p.checked += a
	p.wrong += f
	route := func(fleet *queryfleet.Fleet, lo, hi int) float64 {
		return perCallNS(clk, 20, 1000, func(i int) {
			r := &balances[lo+i%(hi-lo)]
			fleet.RouteQuery(r.method, r.arg, "bench", chainTime)
		})
	}
	cached := w.fleet.CacheSize() / 2
	if cached < 1 || cached >= len(balances) {
		return fmt.Errorf("probe: cache holds %d entries for %d addresses; no hit and miss ranges", w.fleet.CacheSize(), len(balances))
	}
	p.values["queryfleet.route_hit_ns"] = route(w.fleet, 0, cached)
	p.values["queryfleet.route_miss_us"] = route(w.fleet, cached, len(balances)) / 1e3
	bareAuth, err := canister.RestoreSnapshotParallel(snap, ingestConfig())
	if err != nil {
		return err
	}
	bare, err := queryfleet.New(bareAuth, fleetConfig(false))
	if err != nil {
		return err
	}
	route(bare, 0, len(balances)) // fill the replicas' balance memos
	p.values["queryfleet.route_bare_ns"] = route(bare, 0, len(balances))
	p.values["queryfleet.route_overhead_ns"] = p.values["queryfleet.route_bare_ns"] - p.values["canister.get_balance_ns"]
	bare.Close()

	// Two clients against one, and the obs tracer on against off, on the
	// hot mix (noisy on shared cores: informational).
	hot, hotSched := hotTable(fx, sc, sc.hotWindow/8+1)
	a, f = warm(w.fleet, fx.Ledger, hot, hotSched, tip)
	p.checked += a
	p.wrong += f
	slice := sc.probeSlice
	one := closedLoop(w.fleet, fx.Ledger, hot, hotSched, tip, slice, 2, clk, nil)
	two, a2, f2 := parallelClosedLoops(2, w.fleet, fx.Ledger, hot, hotSched, tip, slice, clk)
	w.fleet.Metrics().Tracer().SetEnabled(true)
	on := closedLoop(w.fleet, fx.Ledger, hot, hotSched, tip, slice, 2, clk, nil)
	w.fleet.Metrics().Tracer().SetEnabled(false)
	p.checked += one.attempted + a2 + on.attempted
	p.wrong += one.failed + f2 + on.failed
	p.values["queryfleet.clients2_qps_ratio"] = two / one.qps()
	p.values["obs.tracer_on_qps_ratio"] = on.qps() / one.qps()

	if err := p.writeLayers(snap); err != nil {
		return err
	}
	return p.tipReplay(w)
}

func (p *prober) check(r *request, rq *ic.RoutedQuery, tip int64) {
	p.checked++
	if !r.check(p.fx.Ledger, rq, tip) {
		p.wrong++
	}
}

// writeLayers times the canister's per-block write path in isolation:
// ProcessPayload on a pre-parsed block with a capturing sink, then the
// frame's encode, decode+prepare and apply on a shadow canister.
func (p *prober) writeLayers(snap []byte) error {
	auth, err := canister.RestoreSnapshotParallel(snap, ingestConfig())
	if err != nil {
		return err
	}
	shadow, err := canister.RestoreSnapshotParallel(snap, ingestConfig())
	if err != nil {
		return err
	}
	var frame *canister.Frame
	auth.SetStreamSink(func(f *canister.Frame) { frame = f })
	var payloadT, encodeT, decodeT, applyT, allocs, frameBytes samples
	for k := 0; k < p.sc.probeTip; k++ {
		block, err := btc.ParseBlock(p.fx.Wire[p.sc.preload+k])
		if err != nil {
			return err
		}
		payload := adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: block, Header: block.Header}}}
		frame = nil
		process := func() { err = auth.ProcessPayload(ic.NewCallContext(ic.KindUpdate, chainTime), payload) }
		if k%2 == 0 {
			payloadT.time(p.clk, process)
		} else {
			allocs = append(allocs, mallocs(process))
		}
		if err != nil || frame == nil {
			return fmt.Errorf("probe: payload %d published no frame (err %v)", k, err)
		}
		frame.Seq = uint64(k + 1)
		var raw []byte
		encodeT.time(p.clk, func() { raw = canister.EncodeFrame(frame) })
		frameBytes = append(frameBytes, float64(len(raw)))
		var dec *canister.Frame
		decodeT.time(p.clk, func() {
			if dec, err = canister.DecodeFrame(raw); err == nil {
				dec.Prepare(ingest.Config{Workers: 1})
			}
		})
		if err != nil {
			return err
		}
		applyT.time(p.clk, func() { err = shadow.ApplyFrame(dec) })
		if err != nil {
			return err
		}
	}
	p.values["canister.process_payload_us"] = payloadT.median() / 1e3
	p.values["canister.process_payload_allocs"] = allocs.median()
	p.values["canister.frame_bytes_per_block"] = frameBytes.median()
	p.values["canister.encode_frame_us"] = encodeT.median() / 1e3
	p.values["canister.decode_frame_us"] = decodeT.median() / 1e3
	p.values["canister.apply_frame_us"] = applyT.median() / 1e3
	return nil
}

// tipReplay carries probeTip blocks through the tip_mixed producer one
// after the other with spans on and no query load, and reports where a
// block's time goes. The stages must account for the whole.
func (p *prober) tipReplay(w *world) error {
	t := newTipper(w, p.clk)
	tr := newTracer()
	t.traceFeed(tr)
	var sum stages
	for k := 0; k < p.sc.probeTip; k++ {
		st, err := t.step()
		if err != nil {
			return err
		}
		p.checked++
		if !st.ok {
			p.wrong++
		}
		sum.parse += st.parse
		sum.payload += st.payload
		sum.feed += st.feed
		sum.apply += st.apply
		sum.probe += st.probe
		sum.total += st.total
	}
	total := float64(sum.total)
	p.values["tip.share.parse"] = float64(sum.parse) / total
	p.values["tip.share.process_payload"] = float64(sum.payload) / total
	p.values["tip.share.feed"] = float64(sum.feed) / total
	p.values["tip.share.apply_pending"] = float64(sum.apply) / total
	p.values["tip.share.probe"] = float64(sum.probe) / total

	// The same accounting from the spans alone: each block's child spans
	// against its root span.
	byName := map[string]samples{}
	var roots, children float64
	for i := range tr.spans {
		s := &tr.spans[i]
		d := float64(s.EndNS - s.StartNS)
		byName[s.Name] = append(byName[s.Name], d)
		switch {
		case s.Parent < 0:
			roots += d
		case tr.spans[s.Parent].Parent < 0:
			children += d
		}
	}
	p.values["bench.stage_sum_error_pct"] = 100 * abs(roots-children) / roots
	p.values["queryfleet.feed_us"] = byName["queryfleet.feed"].median() / 1e3
	p.values["queryfleet.apply_pending_us"] = byName["queryfleet.apply_pending"].median() / 1e3
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
