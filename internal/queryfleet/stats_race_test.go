package queryfleet_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"icbtc/internal/canister"
	"icbtc/internal/ic"
	"icbtc/internal/queryfleet"
)

// TestStatsSnapshotConsistency hammers the serving path from many
// goroutines while a reader snapshots Stats concurrently, asserting the
// invariant independently-read counters could violate mid-burst: every
// certified response has a matching served or forwarded count in the SAME
// snapshot. Run under -race this also exercises the counter-pair lock
// discipline.
func TestStatsSnapshotConsistency(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 2
	cfg.QueryConcurrency = 4
	// A cheap signer so every response is certified — the coupled
	// served+certified bump is the pair that used to tear.
	r := newRig(t, cfg, 6)
	r.fleet.SetSigner(func(digest []byte) ([]byte, error) {
		sig := make([]byte, 8)
		copy(sig, digest)
		return sig, nil
	})
	if err := r.fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const perWorker = 300
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Concurrent snapshot reader: any snapshot taken mid-burst must satisfy
	// Certified <= Served+Forwarded.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.fleet.Stats()
			if s.Certified > s.Served+s.Forwarded {
				t.Errorf("torn stats snapshot: certified=%d > served+forwarded=%d",
					s.Certified, s.Served+s.Forwarded)
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				now := time.Unix(1_700_000_000+int64(w*perWorker+i), 0)
				rq := r.fleet.RouteQuery("get_balance",
					canister.GetBalanceArgs{Address: r.addr.String()}, "caller", now)
				if rq.Err != nil {
					t.Errorf("worker %d query %d: %v", w, i, rq.Err)
					return
				}
				if len(rq.Signature) == 0 {
					t.Errorf("worker %d query %d: uncertified response", w, i)
					return
				}
			}
		}(w)
	}
	// Release the reader once every query has been counted, then wait for
	// all goroutines (the reader is in wg too).
	for {
		s := r.fleet.Stats()
		if s.Served+s.Forwarded >= workers*perWorker {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// End-state conservation: every query was served or forwarded, and all
	// of them certified.
	s := r.fleet.Stats()
	if s.Served+s.Forwarded != workers*perWorker {
		t.Fatalf("served=%d forwarded=%d, want total %d", s.Served, s.Forwarded, workers*perWorker)
	}
	if s.Certified != workers*perWorker {
		t.Fatalf("certified=%d, want %d", s.Certified, workers*perWorker)
	}
}

// TestCollaboratorSwapUnderLoad swaps the fleet's three collaborators — the
// signer, the verifier and the response-fault seam — while eight goroutines
// route queries. Each is published through an atomic pointer and loaded once
// per executed query, so a response is either unsigned or carries a signature
// that verifies (never a half-installed signer), the audit never ejects an
// honest replica, and no Stats snapshot tears. Run under -race.
func TestCollaboratorSwapUnderLoad(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 2
	cfg.QueryConcurrency = 4
	r := newRig(t, cfg, 6)
	if err := r.fleet.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	sign := func(digest []byte) ([]byte, error) { return bytes.Clone(digest[:8]), nil }
	verify := func(env ic.CertifiedQuery, sig []byte) bool {
		digest := ic.ResponseDigest(env, nil)
		return bytes.Equal(sig, digest[:8])
	}
	passThrough := func(_ int, _ string, rq ic.RoutedQuery) ic.RoutedQuery { return rq }

	const workers = 8
	const perWorker = 300
	var routers, swapper sync.WaitGroup
	done := make(chan struct{})
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i%2 == 0 {
				r.fleet.SetSigner(sign)
				r.fleet.SetVerifier(verify)
				r.fleet.SetResponseFault(passThrough)
			} else {
				r.fleet.SetSigner(nil)
				r.fleet.SetVerifier(nil)
				r.fleet.SetResponseFault(nil)
			}
			if s := r.fleet.Stats(); s.Certified > s.Served+s.Forwarded {
				t.Errorf("torn stats snapshot: certified=%d > served+forwarded=%d", s.Certified, s.Served+s.Forwarded)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		routers.Add(1)
		go func(w int) {
			defer routers.Done()
			args := canister.GetBalanceArgs{Address: r.addr.String()}
			for i := 0; i < perWorker; i++ {
				rq := r.fleet.RouteQuery("get_balance", args, "caller", r.now)
				if rq.Err != nil {
					t.Errorf("worker %d query %d: %v", w, i, rq.Err)
					return
				}
				if rq.Signature != nil && !verify(rq.Envelope("get_balance"), rq.Signature) {
					t.Errorf("worker %d query %d: signature does not verify", w, i)
					return
				}
			}
		}(w)
	}
	routers.Wait()
	close(done)
	swapper.Wait()

	s := r.fleet.Stats()
	if s.Served != workers*perWorker || s.Forwarded != 0 {
		t.Fatalf("served=%d forwarded=%d, want %d and 0", s.Served, s.Forwarded, workers*perWorker)
	}
	if s.ByzantineEjected != 0 || r.fleet.Replica(0).Broken() || r.fleet.Replica(1).Broken() {
		t.Fatalf("an honest replica was ejected during a swap: %+v", s)
	}
}
