package queryfleet_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"icbtc/internal/canister"
	"icbtc/internal/queryfleet"
)

// TestAdmissionDeterministicShedding scripts a single-goroutine request
// sequence against virtual timestamps and asserts the exact admit/shed
// pattern: the token bucket is driven by the `now` each query carries, so
// a seeded scheduler replays identical shed decisions.
func TestAdmissionDeterministicShedding(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 1
	cfg.Budgets = map[canister.CostClass]queryfleet.Budget{
		canister.CostScan: {Rate: 1, Burst: 2},
	}
	r := newRig(t, cfg, 10)

	scan := canister.GetUTXOsArgs{Address: r.addr.String(), Limit: 3}
	cheap := canister.GetBalanceArgs{Address: r.addr.String()}
	route := func(method string, arg any, at time.Time) error {
		t.Helper()
		return r.fleet.RouteQuery(method, arg, "client", at).Err
	}

	t0 := r.now
	// Burst of 2 admits, then shed — twice to prove the replayed decision.
	for run := 0; run < 2; run++ {
		at := t0.Add(time.Duration(run) * time.Hour) // a fresh full bucket each run
		if err := route("get_utxos", scan, at); err != nil {
			t.Fatalf("run %d: first scan shed: %v", run, err)
		}
		if err := route("get_utxos", scan, at); err != nil {
			t.Fatalf("run %d: second scan (burst) shed: %v", run, err)
		}
		err := route("get_utxos", scan, at)
		if !errors.Is(err, queryfleet.ErrBusy) {
			t.Fatalf("run %d: third scan = %v, want ErrBusy", run, err)
		}
		// The cheap class has no budget: never shed, even mid-flood.
		if err := route("get_balance", cheap, at); err != nil {
			t.Fatalf("run %d: unbudgeted balance query shed: %v", run, err)
		}
		// Virtual time refills exactly Rate tokens per second.
		if err := route("get_utxos", scan, at.Add(1*time.Second)); err != nil {
			t.Fatalf("run %d: scan after 1s refill shed: %v", run, err)
		}
		if err := route("get_utxos", scan, at.Add(1*time.Second)); !errors.Is(err, queryfleet.ErrBusy) {
			t.Fatalf("run %d: second scan after refill = %v, want ErrBusy", run, err)
		}
	}
	st := r.fleet.Stats()
	if st.Shed != 4 {
		t.Fatalf("Stats.Shed = %d, want 4", st.Shed)
	}
}

// TestAdmissionShedBypassesExecution asserts a shed query consumes no
// replica capacity, is never certified, and is never cached.
func TestAdmissionShedBypassesExecution(t *testing.T) {
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 1
	cfg.CacheEntries = 16
	cfg.Budgets = map[canister.CostClass]queryfleet.Budget{
		canister.CostScan: {Rate: 0, Burst: 0}, // scans always shed
	}
	r := newRig(t, cfg, 10)

	served := r.fleet.Replica(0).Served()
	rq := r.fleet.RouteQuery("get_utxos", canister.GetUTXOsArgs{Address: r.addr.String()}, "client", r.now)
	if !errors.Is(rq.Err, queryfleet.ErrBusy) {
		t.Fatalf("zero-budget scan = %v, want ErrBusy", rq.Err)
	}
	if rq.Signature != nil {
		t.Fatal("shed response carries a certification")
	}
	if got := r.fleet.Replica(0).Served(); got != served {
		t.Fatal("shed query reached a replica")
	}
	if r.fleet.CacheSize() != 0 {
		t.Fatal("shed response was cached")
	}
}

// TestScanFloodDoesNotStarveBalance: a paginated get_utxos flood runs against
// a tight scan budget beside a balance client. Admission must shed the flood
// with explicit busy errors and nothing else, and a budget on one cost class
// must never fail or shed a query of another.
func TestScanFloodDoesNotStarveBalance(t *testing.T) {
	const (
		floodWorkers  = 4
		floodRequests = 40
		balanceReqs   = 60
	)
	cfg := queryfleet.DefaultConfig()
	cfg.Replicas = 2
	cfg.Budgets = map[canister.CostClass]queryfleet.Budget{
		canister.CostScan: {Rate: 10, Burst: 2},
	}
	r := newRig(t, cfg, 12)

	var wg sync.WaitGroup
	floodErrs := make(chan error, floodWorkers*floodRequests)
	for w := 0; w < floodWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < floodRequests; i++ {
				// Distinct limits keep the requests from coalescing or
				// cache-hitting: every admitted one pays full execution.
				args := canister.GetUTXOsArgs{Address: r.addr.String(), Limit: 1 + (w*floodRequests+i)%30}
				if err := r.fleet.RouteQuery("get_utxos", args, "flood", time.Now()).Err; err != nil {
					floodErrs <- err
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		args := canister.GetBalanceArgs{Address: r.addr.String()}
		for i := 0; i < balanceReqs; i++ {
			if rq := r.fleet.RouteQuery("get_balance", args, "client", time.Now()); rq.Err != nil {
				t.Errorf("balance query %d failed: %v", i, rq.Err)
				return
			}
		}
	}()
	wg.Wait()
	close(floodErrs)

	shedSeen := 0
	for err := range floodErrs {
		if !errors.Is(err, queryfleet.ErrBusy) {
			t.Fatalf("flood error is not the explicit busy error: %v", err)
		}
		shedSeen++
	}
	st := r.fleet.Stats()
	if shedSeen == 0 || st.Shed == 0 {
		t.Fatal("flood was never shed; admission control inert")
	}
	if st.Shed != uint64(shedSeen) {
		t.Fatalf("fleet shed %d queries, the flood saw %d busy errors: a balance query was shed", st.Shed, shedSeen)
	}
}
