package queryfleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"icbtc/internal/canister"
	"icbtc/internal/ic"
	"icbtc/internal/ingest"
)

// Replica is one read replica: a full canister state hydrated from a
// snapshot (statecodec fast-sync) and kept fresh by applying the framed
// per-block delta stream. Queries execute concurrently under the state's
// read lock; frame application and re-hydration take the write lock.
//
// Execution concurrency is bounded separately from state safety: on the IC
// a canister executes queries sequentially per replica, so each Replica
// owns a bounded set of execution slots (Config.QueryConcurrency, default
// 1) and a query holds one for as long as it executes.
type Replica struct {
	index int
	fleet *Fleet

	// mu guards the canister state: queries hold it for read, frame
	// application and hydration for write. Certifications bind the chain
	// position (anchor, tip) read under this lock together with the served
	// value, so a response and its binding always come from one state.
	mu  sync.RWMutex
	can *canister.BitcoinCanister
	// seq is the stream sequence number of the last applied frame (or the
	// frame the hydration snapshot was taken after).
	seq uint64

	// tip mirrors the canister's tip height for lock-free staleness checks
	// on the serving path.
	tip atomic.Int64
	// broken marks a replica whose frame application failed: its state may
	// silently diverge from the stream (a later frame applied over a lost
	// one), so routing skips it until a re-hydration resets it. Without the
	// quarantine the replica's tip would keep advancing with later frames,
	// the lag check would read 0, and the fleet would keep certifying
	// responses from a diverged state.
	broken atomic.Bool
	// needsResync flags a replica whose stream observed an authority
	// regression (Feed saw the tip move backwards): its state may be AHEAD
	// of the recovered authority. ApplyPending re-hydrates before touching
	// further frames.
	needsResync atomic.Bool

	// applyMu makes ApplyPending one caller's at a time, dequeue through
	// apply, so dequeue order is apply order. It is the outermost lock: taken
	// with no fleet or replica lock held, and a resync takes the fleet's
	// authMu → feedMu under it.
	applyMu sync.Mutex
	// inbox holds encoded frames not yet applied, in stream order.
	inboxMu sync.Mutex
	inbox   []pendingFrame

	// execSlots bounds concurrent query executions on this replica.
	execSlots chan struct{}

	served atomic.Uint64
}

// pendingFrame is one enqueued stream frame: the wire frame delivered for
// stream slot seq, which every replica it was delivered to shares. at is the
// publish timestamp (fleet registry clock) the apply-lag histogram measures
// from.
type pendingFrame struct {
	raw *wireFrame
	seq uint64
	at  time.Time
}

// wireFrame is one published frame in wire form, decoded at most once for
// the whole fleet: the first replica to reach it decodes the bytes and
// parses its blocks, and every other replica applies that same decode.
// Sharing is safe because applying a frame writes nothing in it (see
// canister.DecodeFrame); what a replica must judge for itself — the embedded
// sequence against its slot, gaps, duplicates — it judges per replica.
type wireFrame struct {
	raw   []byte
	once  sync.Once
	frame *canister.Frame
	err   error
}

// decode returns the frame decoded and prepared, or the decode error; only
// the first call does the work.
func (w *wireFrame) decode(met *fleetMetrics) (*canister.Frame, error) {
	w.once.Do(func() {
		met.framesDecoded.Inc()
		w.frame, w.err = canister.DecodeFrame(w.raw)
		if w.err == nil {
			// Blocks parse inside this produce call; frame-level parallelism
			// already covers the batch.
			w.frame.Prepare(ingest.Config{Workers: 1})
		}
	})
	return w.frame, w.err
}

func newReplica(index int, fleet *Fleet, snapshot []byte, seq uint64) (*Replica, error) {
	slots := fleet.cfg.QueryConcurrency
	if slots <= 0 {
		slots = 1
	}
	r := &Replica{
		index:     index,
		fleet:     fleet,
		execSlots: make(chan struct{}, slots),
	}
	for i := 0; i < slots; i++ {
		r.execSlots <- struct{}{}
	}
	if err := r.Hydrate(snapshot, seq); err != nil {
		return nil, err
	}
	return r, nil
}

// Hydrate (re)builds the replica's state from a canister snapshot taken
// after stream frame seq: decode (sharded across ingest.DefaultWorkers()
// workers — the fast-sync path), warm every lazily derived structure the
// read path touches, and drop queued frames the snapshot already covers.
// Serving continues from the new state on return.
func (r *Replica) Hydrate(snapshot []byte, seq uint64) error {
	can, err := canister.RestoreSnapshotParallel(snapshot, ingest.Config{Workers: ingest.DefaultWorkers()})
	if err != nil {
		return fmt.Errorf("queryfleet: hydrate replica %d: %w", r.index, err)
	}
	can.WarmQueryState()
	tip, _ := can.StreamPosition()

	r.mu.Lock()
	r.can = can
	r.seq = seq
	r.tip.Store(tip)
	r.broken.Store(false)      // a fresh snapshot supersedes any lost frame
	r.needsResync.Store(false) // and any observed authority regression
	r.mu.Unlock()

	r.inboxMu.Lock()
	kept := r.inbox[:0]
	for _, f := range r.inbox {
		if f.seq > seq {
			kept = append(kept, f)
		}
	}
	r.inbox = kept
	r.inboxMu.Unlock()
	return nil
}

// enqueue appends one wire frame to the replica's inbox.
func (r *Replica) enqueue(raw *wireFrame, seq uint64, at time.Time) {
	r.inboxMu.Lock()
	r.inbox = append(r.inbox, pendingFrame{raw: raw, seq: seq, at: at})
	r.inboxMu.Unlock()
}

// Pending returns how many frames are queued but not yet applied.
func (r *Replica) Pending() int {
	r.inboxMu.Lock()
	defer r.inboxMu.Unlock()
	return len(r.inbox)
}

// Seq returns the stream position of the replica's state.
func (r *Replica) Seq() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.seq
}

// TipHeight returns the replica's current chain tip height.
func (r *Replica) TipHeight() int64 { return r.tip.Load() }

// ApplyPending applies up to max queued frames (all of them when max < 0),
// returning how many were applied. Queued frames are decoded and their
// blocks parsed on the ingest pipeline (ingest.DefaultWorkers() wide) while
// application stays strictly sequential under the write lock, so a lagging
// replica catches up at pipeline speed without weakening any ordering
// guarantee. A frame is decoded once for the fleet: a replica that reaches
// it after another takes that decode (or waits for it) instead of decoding
// the same bytes again.
//
// Every frame is integrity-checked before it touches state: the statecodec
// checksum rejects corrupted bytes, the embedded sequence number must match
// the stream slot the frame was delivered for, and the slot must be exactly
// the replica's position + 1 — a gap, reordering, or swap is rejected, and a
// re-delivered frame (slot ≤ position) is skipped as a duplicate. A rejection
// quarantines the replica (Broken reports it; routing skips it) and
// re-hydrates it right here — continuing past a lost frame would let later
// frames advance the tip over a silently diverged state. The replica jumps to
// a fresh authority snapshot, the damaged backlog is discarded, and serving
// resumes without operator action. A replica whose re-hydration failed, or
// that was pulled out by Quarantine, stays quarantined until HydrateReplica.
//
// Callers are serialized per replica: a second one waits for the first to
// finish its batches instead of dequeuing frame n+1 while frame n is still in
// flight — which it would read as a sequence gap, quarantining a healthy
// replica (two concurrent drainers on one replica did).
func (r *Replica) ApplyPending(max int) (int, error) {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	applied := 0
	for max < 0 || applied < max {
		if r.needsResync.Load() {
			if err := r.resync("authority tip regressed"); err != nil {
				return applied, err
			}
			continue
		}
		if r.broken.Load() {
			return applied, fmt.Errorf("queryfleet: replica %d is quarantined after a failed frame; re-hydrate it", r.index)
		}
		r.inboxMu.Lock()
		take := len(r.inbox)
		if max >= 0 && take > max-applied {
			take = max - applied
		}
		if take == 0 {
			r.inboxMu.Unlock()
			return applied, nil
		}
		batch := make([]pendingFrame, take)
		copy(batch, r.inbox[:take])
		r.inbox = r.inbox[take:]
		r.inboxMu.Unlock()

		type decoded struct {
			frame *canister.Frame
			err   error
		}
		var failErr error
		err := ingest.Map(len(batch), ingest.Config{Workers: ingest.DefaultWorkers(), Obs: r.fleet.met.reg},
			func(_, i int) decoded {
				frame, err := batch[i].raw.decode(r.fleet.met)
				return decoded{frame: frame, err: err}
			},
			func(i int, dec decoded) error {
				f := batch[i]
				if dec.err != nil {
					// Checksum/framing rejection: bit-flips and truncation
					// land here (statecodec's CRC trailer covers every byte).
					r.fleet.met.frameCorrupt.Inc()
					failErr = fmt.Errorf("queryfleet: replica %d frame %d: %w", r.index, f.seq, dec.err)
					return failErr
				}
				if dec.frame.Seq != f.seq {
					// Clean bytes carrying the wrong stream position: a frame
					// body swapped or replayed into another slot.
					r.fleet.met.frameCorrupt.Inc()
					failErr = fmt.Errorf("queryfleet: replica %d frame %d: embedded seq %d does not match its stream slot",
						r.index, f.seq, dec.frame.Seq)
					return failErr
				}
				r.mu.Lock()
				if f.seq <= r.seq {
					// Already covered: a re-delivered (duplicated) frame, or a
					// concurrent re-hydration that raced the dequeue.
					r.mu.Unlock()
					r.fleet.met.frameDuplicates.Inc()
					return nil
				}
				if f.seq != r.seq+1 {
					// A hole in the stream: the missing frame was dropped or
					// is still in flight behind this one (reordering).
					at, want := f.seq, r.seq+1
					r.mu.Unlock()
					r.fleet.met.frameGaps.Inc()
					failErr = fmt.Errorf("queryfleet: replica %d frame %d: sequence gap (want %d)", r.index, at, want)
					return failErr
				}
				err := r.can.ApplyFrame(dec.frame)
				if err == nil {
					r.seq = f.seq
					tip, _ := r.can.StreamPosition()
					r.tip.Store(tip)
				}
				r.mu.Unlock()
				if err != nil {
					if errors.Is(err, canister.ErrFrameOutOfOrder) {
						r.fleet.met.frameGaps.Inc()
					} else {
						r.fleet.met.frameCorrupt.Inc()
					}
					failErr = fmt.Errorf("queryfleet: replica %d frame %d: %w", r.index, f.seq, err)
					return failErr
				}
				// Publish→apply lag on the fleet registry clock (virtual in
				// seeded runs, where enqueue and apply share one timeline).
				r.fleet.met.applyLag.ObserveDuration(r.fleet.met.reg.Now().Sub(f.at))
				applied++
				return nil
			})
		if err != nil {
			r.broken.Store(true)
			if failErr != nil {
				err = failErr
			}
			// Jump past the damage: re-hydrate from a fresh authority
			// snapshot. The rest of the dequeued batch is superseded by the
			// snapshot (its frames are ≤ the hydration position).
			if rerr := r.resync(err.Error()); rerr != nil {
				return applied, rerr
			}
			continue
		}
	}
	return applied, nil
}

// resync re-hydrates this replica through the fleet (authMu → feedMu → a
// fresh snapshot), clearing the broken and needsResync flags. Called with no
// replica lock but applyMu held.
func (r *Replica) resync(cause string) error {
	r.needsResync.Store(false)
	if err := r.fleet.resyncReplica(r.index); err != nil {
		r.broken.Store(true)
		return fmt.Errorf("queryfleet: replica %d resync (%s): %w", r.index, cause, err)
	}
	return nil
}

// Broken reports whether the replica is quarantined after a failed frame
// application. HydrateReplica clears it.
func (r *Replica) Broken() bool { return r.broken.Load() }

// Quarantine marks the replica broken without a frame failure: an operator
// (or watchdog) pulling a replica out of rotation. Routing skips it until a
// re-hydration clears it.
func (r *Replica) Quarantine() { r.broken.Store(true) }

// CatchUp applies every queued frame.
func (r *Replica) CatchUp() error {
	_, err := r.ApplyPending(-1)
	return err
}

// tryAcquire takes an execution slot and the state's read lock if it can
// without waiting: false when every slot is executing, or when a frame
// application holds the write lock or waits for it.
func (r *Replica) tryAcquire() bool {
	select {
	case <-r.execSlots:
	default:
		return false
	}
	if !r.mu.TryRLock() {
		r.execSlots <- struct{}{}
		return false
	}
	return true
}

// acquire takes an execution slot and the state's read lock, waiting for
// both.
func (r *Replica) acquire() {
	<-r.execSlots
	r.mu.RLock()
}

// execute runs one query on a replica its caller acquired, releasing it. The
// returned chain position is the one the response was computed at — what its
// certification binds; seq is that state's stream position, read under the
// same lock, which the cache layer compares against the fleet generation.
func (r *Replica) execute(method string, arg any, now time.Time) (value any, err error, instructions uint64, tip, anchor int64, seq uint64) {
	ctx := ic.NewCallContext(ic.KindQuery, now)
	value, err = r.can.Query(ctx, method, arg)
	tip, anchor = r.can.StreamPosition()
	seq = r.seq
	r.mu.RUnlock()
	instructions = ctx.Meter.Total()
	r.served.Add(1)
	r.execSlots <- struct{}{}
	return value, err, instructions, tip, anchor, seq
}

// Served returns how many queries this replica has executed.
func (r *Replica) Served() uint64 { return r.served.Load() }

// Canister exposes the underlying state for test probes. The caller must
// not run it concurrently with frame application; the differential harness
// (single-threaded) is the intended user.
func (r *Replica) Canister() *canister.BitcoinCanister {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.can
}
