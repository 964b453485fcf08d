package main

import (
	"bytes"
	"fmt"
	"runtime"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
)

// outcome is what a workload hands back: the values of its metrics and the
// count of operations attempted and failed.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	tracers   []*tracer
}

// cycle is one catch-up: wire blocks -> synced canister -> snapshot ->
// restored (serving-ready) canister. The blocks arrive in batches of
// sc.syncBatch (an adapter hands over a few megabytes per response), and
// every batch is timed on its own: stageNS holds the batches in order, then
// the snapshot, then the restore.
type cycle struct {
	stageNS  []int64
	instr    uint64
	snapshot []byte
	restored *canister.BitcoinCanister
}

func runCycle(fx *Fixture, sc scale, clk clock, tr *tracer, id int64) (cycle, error) {
	var c cycle
	t0 := clk.now()
	root := tr.open("ingest.cycle", id, -1, t0)
	can := canister.New(canisterConfig())
	ctx := ic.NewCallContext(ic.KindUpdate, chainTime)
	prev := t0
	for lo := 0; lo < sc.preload; lo += sc.syncBatch {
		hi := lo + sc.syncBatch
		if hi > sc.preload {
			hi = sc.preload
		}
		stats, err := can.SyncWire(ctx, fx.Wire[lo:hi], ingestConfig())
		if err != nil || stats.Rejected != 0 {
			return c, fmt.Errorf("sync blocks %d-%d: %d rejected, err %v", lo+1, hi, stats.Rejected, err)
		}
		t := clk.now()
		tr.add("canister.sync_wire", id, root, prev, t)
		c.stageNS = append(c.stageNS, t-prev)
		prev = t
	}
	snap, err := can.Snapshot()
	if err != nil {
		return c, fmt.Errorf("snapshot: %w", err)
	}
	t := clk.now()
	tr.add("canister.snapshot", id, root, prev, t)
	c.stageNS = append(c.stageNS, t-prev)
	prev = t
	restored, err := canister.RestoreSnapshotParallel(snap, ingestConfig())
	if err != nil {
		return c, fmt.Errorf("restore: %w", err)
	}
	t = clk.now()
	tr.add("canister.restore_snapshot_parallel", id, root, prev, t)
	tr.close(root, t)
	c.stageNS = append(c.stageNS, t-prev)
	c.instr, c.snapshot, c.restored = ctx.Meter.Total(), snap, restored
	return c, nil
}

// serialOracle ingests the same blocks one by one through ParseBlock and the
// serial ProcessPayload — the path the pipelined one must equal byte for
// byte — and returns its snapshot.
func serialOracle(fx *Fixture, sc scale) ([]byte, error) {
	can := canister.New(canisterConfig())
	for i, raw := range fx.Wire[:sc.preload] {
		block, err := btc.ParseBlock(raw)
		if err != nil {
			return nil, fmt.Errorf("oracle block %d: %w", i+1, err)
		}
		payload := adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: block, Header: block.Header}}}
		if err := can.ProcessPayload(ic.NewCallContext(ic.KindUpdate, chainTime), payload); err != nil {
			return nil, fmt.Errorf("oracle block %d: %w", i+1, err)
		}
	}
	return can.Snapshot()
}

// probeBalances asks a restored canister for every address's balance and
// returns how many answers disagree with the ledger.
func probeBalances(fx *Fixture, can *canister.BitcoinCanister, tip int64) (attempted, failed int64) {
	for a, address := range fx.Addresses {
		attempted++
		got, err := can.Query(ic.NewCallContext(ic.KindQuery, chainTime), "get_balance", canister.GetBalanceArgs{Address: address})
		want, _ := fx.Ledger.At(a, tip)
		if v, ok := got.(int64); err != nil || !ok || v != want {
			failed++
		}
	}
	return attempted, failed
}

// runIngestSync times catch-up cycles for the given duration. Set-up is the
// warm-up cycles (first pass of the loop); each timed cycle is preceded by
// an untimed collection so the previous cycle's dead canisters are not
// charged to it.
//
// Every cycle does identical work stage by stage, so the run reports the
// cycle made of each stage's fastest repetition: a whole cycle (1.5 s on two
// cores) is almost never undisturbed on a shared machine, a 250 ms stage
// often is (see quiet).
func runIngestSync(fx *Fixture, sc scale, secs float64, traced bool) (*outcome, error) {
	clk := newClock()
	base := heapLive()
	var setups []float64
	var warmed cycle
	reps := sc.setupReps
	if traced {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		warmed = cycle{}
		runtime.GC()
		c, err := runCycle(fx, sc, clk, nil, 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(sumNS(c.stageNS)))
		warmed = c
	}
	tip := int64(sc.preload)
	// One canister's heap: the restored copy is what stays live.
	snapBytes := len(warmed.snapshot)
	warmed.snapshot = nil
	heap := heapLive() - base
	runtime.KeepAlive(warmed.restored)
	warmed = cycle{}

	// The oracle is built before timing starts so each cycle's snapshot can
	// be compared and dropped as soon as the cycle ends.
	want, err := serialOracle(fx, sc)
	if err != nil {
		return nil, err
	}

	out := &outcome{values: map[string]float64{}}
	var last cycle
	var instr uint64
	// timeCycles runs cycles for secs, at least min of them, and returns the
	// fastest repetition of every stage.
	timeCycles := func(secs float64, min int, tr *tracer) ([]int64, error) {
		var best []int64
		start := clk.now()
		for id := int64(1); id <= int64(min) || seconds(clk.now()-start) < secs; id++ {
			last = cycle{}
			runtime.GC()
			c, err := runCycle(fx, sc, clk, tr, id)
			if err != nil {
				return nil, err
			}
			if best == nil {
				best = append(best, c.stageNS...)
			}
			for i, ns := range c.stageNS {
				if ns < best[i] {
					best[i] = ns
				}
			}
			instr = c.instr
			// Correctness, outside the timed section: every cycle's
			// snapshot equals the serial oracle's bytes.
			out.attempted += int64(sc.preload)
			if !bytes.Equal(c.snapshot, want) {
				out.failed += int64(sc.preload)
			}
			c.snapshot = nil
			last = c
		}
		return best, nil
	}
	var best []int64
	if !traced {
		if best, err = timeCycles(secs, 3, nil); err != nil {
			return nil, err
		}
	} else {
		// The traced run splits its time: an untraced half gives the
		// reference the traced half's overhead is taken against.
		ref, err := timeCycles(secs/2, 2, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		if best, err = timeCycles(secs/2, 2, tr); err != nil {
			return nil, err
		}
		out.tracers = []*tracer{tr}
		out.values["bench.trace_overhead_pct"] = 100 * float64(sumNS(best)-sumNS(ref)) / float64(sumNS(ref))
	}

	// The restored copy re-encodes to the same bytes and answers as the
	// ledger says.
	again, err := last.restored.Snapshot()
	if err != nil {
		return nil, err
	}
	out.attempted++
	if !bytes.Equal(again, want) {
		out.failed++
	}
	a, f := probeBalances(fx, last.restored, tip)
	out.attempted += a
	out.failed += f

	live := float64(fx.Ledger.LiveUTXOs(tip))
	syncNS := sumNS(best[:len(best)-2]) // all but the snapshot and the restore
	out.values["setup_s"] = median(setups)
	out.values["throughput_per_s"] = float64(sc.preload) / seconds(syncNS)
	out.values["latency_p50_us"] = float64(sumNS(best)) / 1e3
	out.values["kinstr_per_op"] = float64(instr) / float64(sc.preload) / 1e3
	out.values["snapshot_bytes_per_utxo"] = float64(snapBytes) / live
	out.values["heap_bytes_per_utxo"] = float64(heap) / live
	return out, nil
}

func sumNS(stages []int64) int64 {
	var t int64
	for _, ns := range stages {
		t += ns
	}
	return t
}
