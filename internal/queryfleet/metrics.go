package queryfleet

import (
	"sync"

	"icbtc/internal/obs"
)

// fleetMetrics is the fleet's obs instrumentation: the counters Fleet.Stats
// reports, plus cache misses, fills, refusals and sweeps, and the frame
// publish→apply lag.
//
// statsMu exists for the two counter pairs that move together
// (served+certified, forwarded+certified): they are incremented under the
// READ side of the lock — shared, so concurrent queries never serialize
// against each other — while Stats takes the WRITE side, which excludes every
// in-flight pair, so no Certified count can exceed its Served+Forwarded.
// Every other counter is a single increment, which cannot tear, and takes no
// lock.
type fleetMetrics struct {
	reg *obs.Registry

	statsMu sync.RWMutex

	served    *obs.Counter
	forwarded *obs.Counter
	certified *obs.Counter
	frames    *obs.Counter
	coalesced *obs.Counter
	// framesDecoded counts wire frames decoded: one per published frame,
	// however many replicas apply it, plus one per alternate a frame fault
	// delivered that a replica reached.
	framesDecoded *obs.Counter
	cacheHits     *obs.Counter

	// Frame-stream integrity counters: every rejected frame is accounted by
	// failure class, and every automatic re-hydration the rejection triggered.
	frameCorrupt    *obs.Counter
	frameGaps       *obs.Counter
	frameDuplicates *obs.Counter
	resyncs         *obs.Counter
	// byzantine counts replicas ejected by the response audit (signature or
	// generation-bound failure on a served certified response).
	byzantine *obs.Counter

	cacheMisses *obs.Counter
	cacheFills  *obs.Counter
	applyLag    *obs.Histogram

	// cacheRefused counts the fills a cache full of current-generation
	// entries turned away, cacheSweeps the walks that looked for entries of
	// older generations to drop.
	cacheRefused *obs.Counter
	cacheSweeps  *obs.Counter
}

func newFleetMetrics() *fleetMetrics {
	r := obs.NewRegistry()
	return &fleetMetrics{
		reg:           r,
		served:        r.Counter("fleet_served_total"),
		forwarded:     r.Counter("fleet_forwarded_total"),
		certified:     r.Counter("fleet_certified_total"),
		frames:        r.Counter("fleet_frames_total"),
		framesDecoded: r.Counter("fleet_frames_decoded_total"),
		coalesced:     r.Counter("fleet_coalesced_total"),
		cacheHits:     r.Counter("fleet_cache_hits_total"),

		frameCorrupt:    r.Counter("fleet_frame_corrupt_total"),
		frameGaps:       r.Counter("fleet_frame_gap_total"),
		frameDuplicates: r.Counter("fleet_frame_duplicate_total"),
		resyncs:         r.Counter("fleet_resync_total"),
		byzantine:       r.Counter("fleet_byzantine_ejections_total"),

		cacheMisses: r.Counter("fleet_cache_misses_total"),
		cacheFills:  r.Counter("fleet_cache_fills_total"),
		applyLag:    r.Histogram("fleet_frame_apply_lag_ns", obs.DurationBuckets),

		cacheRefused: r.Counter("fleet_cache_refused_total"),
		cacheSweeps:  r.Counter("fleet_cache_sweeps_total"),
	}
}

// Metrics returns the fleet's obs registry. Seeded drivers install the
// scheduler clock on it so the apply-lag histogram (and any traced spans)
// measure virtual time.
func (f *Fleet) Metrics() *obs.Registry { return f.met.reg }

// countCertified bumps a served or forwarded counter and, for a certified
// response, the certified counter with it under the shared side of the stats
// lock, so both land in the same Stats snapshot (or the next one). Concurrent
// pairs proceed in parallel; only Stats excludes them.
func (m *fleetMetrics) countCertified(c *obs.Counter, certified bool) {
	if !certified {
		c.Inc()
		return
	}
	m.statsMu.RLock()
	c.Inc()
	m.certified.Inc()
	m.statsMu.RUnlock()
}

// snapshotStats reads the counters under the exclusive side of the stats
// lock, so no half-applied pair can tear the view.
func (m *fleetMetrics) snapshotStats() Stats {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	return Stats{
		Served:           m.served.Value(),
		Forwarded:        m.forwarded.Value(),
		Certified:        m.certified.Value(),
		Frames:           m.frames.Value(),
		Coalesced:        m.coalesced.Value(),
		CacheHits:        m.cacheHits.Value(),
		FrameCorrupt:     m.frameCorrupt.Value(),
		FrameGaps:        m.frameGaps.Value(),
		FrameDuplicates:  m.frameDuplicates.Value(),
		Resyncs:          m.resyncs.Value(),
		ByzantineEjected: m.byzantine.Value(),
	}
}
