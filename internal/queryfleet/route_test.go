package queryfleet

import (
	"slices"
	"testing"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/btcnode"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
)

// routeRig is an authority fed forged blocks and a fleet hydrated from it.
type routeRig struct {
	t     *testing.T
	auth  *canister.BitcoinCanister
	fleet *Fleet
	forge *btcnode.Forge
	tip   btc.Hash
	now   time.Time
}

func newRouteRig(t *testing.T, replicas int, maxLag int64) *routeRig {
	t.Helper()
	params := btc.RegtestParams()
	r := &routeRig{
		t:     t,
		auth:  canister.New(canister.DefaultConfig(btc.Regtest)),
		forge: btcnode.NewForge(params),
		tip:   params.GenesisHeader.BlockHash(),
		now:   time.Unix(int64(params.GenesisHeader.Timestamp), 0).Add(time.Hour),
	}
	r.block()
	fleet, err := New(r.auth, Config{Replicas: replicas, MaxLagBlocks: maxLag})
	if err != nil {
		t.Fatal(err)
	}
	r.fleet = fleet
	return r
}

// block forges one block on the tip and hands it to the authority, which
// publishes its frame to every replica's inbox.
func (r *routeRig) block() {
	r.t.Helper()
	b, err := r.forge.Mine(r.tip, btc.PayToPubKeyHashScript([20]byte{0x52}))
	if err != nil {
		r.t.Fatal(err)
	}
	r.tip = b.BlockHash()
	r.now = r.now.Add(time.Minute)
	payload := adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: b, Header: b.Header}}}
	if err := r.auth.ProcessPayload(ic.NewCallContext(ic.KindUpdate, r.now), payload); err != nil {
		r.t.Fatal(err)
	}
}

// aimAt makes replica i the next round-robin pick.
func (r *routeRig) aimAt(i int) {
	n := uint64(len(r.fleet.replicas))
	r.fleet.rr.Store((uint64(i) + n - 1) % n)
}

// served returns every replica's execution count.
func (r *routeRig) served() []uint64 {
	out := make([]uint64, len(r.fleet.replicas))
	for i, rep := range r.fleet.replicas {
		out[i] = rep.Served()
	}
	return out
}

// route sends get_tip from another goroutine and returns the channel its
// answer arrives on.
func (r *routeRig) route() <-chan ic.RoutedQuery {
	done := make(chan ic.RoutedQuery, 1)
	go func() { done <- r.fleet.RouteQuery("get_tip", nil, "client", r.now) }()
	return done
}

// TestRouteAroundBusyReplica: a query whose round-robin pick is busy runs on
// a free replica instead of waiting for it, and nothing else about routing
// moves — a fleet with nowhere else to go waits, a pick past the staleness
// bound forwards, and queries sent one at a time are served in round-robin
// order.
func TestRouteAroundBusyReplica(t *testing.T) {
	t.Run("pick busy, a free replica serves", func(t *testing.T) {
		r := newRouteRig(t, 3, 0)
		// Replica 1 lags past the bound (it never applies the new frame), so
		// the free replica that serves is replica 2.
		r.block()
		for _, i := range []int{0, 2} {
			if err := r.fleet.replicas[i].CatchUp(); err != nil {
				t.Fatal(err)
			}
		}
		busy := r.fleet.replicas[0]
		for _, hold := range []struct {
			what       string
			take, give func()
		}{
			{"write lock held", busy.mu.Lock, busy.mu.Unlock},
			{"execution slot taken", func() { <-busy.execSlots }, func() { busy.execSlots <- struct{}{} }},
		} {
			before := r.served()
			r.aimAt(0)
			hold.take()
			select {
			case rq := <-r.route():
				if rq.Err != nil || rq.Forwarded {
					t.Fatalf("%s: err=%v forwarded=%v", hold.what, rq.Err, rq.Forwarded)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: the query waited for the busy replica", hold.what)
			}
			hold.give()
			after := r.served()
			if after[0] != before[0] || after[1] != before[1] || after[2] != before[2]+1 {
				t.Fatalf("%s: served %v -> %v, want one more on replica 2 only", hold.what, before, after)
			}
		}
	})

	t.Run("one replica waits", func(t *testing.T) {
		r := newRouteRig(t, 1, 0)
		only := r.fleet.replicas[0]
		only.mu.Lock()
		done := r.route()
		select {
		case <-done:
			t.Fatal("a query was answered while the only replica's write lock was held")
		case <-time.After(50 * time.Millisecond):
		}
		only.mu.Unlock()
		if rq := <-done; rq.Err != nil || rq.Forwarded || only.Served() != 1 {
			t.Fatalf("err=%v forwarded=%v served=%d, want the replica to serve once released", rq.Err, rq.Forwarded, only.Served())
		}
	})

	t.Run("lagging pick forwards", func(t *testing.T) {
		r := newRouteRig(t, 2, 0)
		r.block()
		if err := r.fleet.replicas[1].CatchUp(); err != nil {
			t.Fatal(err)
		}
		r.aimAt(0)
		rq := r.fleet.RouteQuery("get_tip", nil, "client", r.now)
		if rq.Err != nil || !rq.Forwarded {
			t.Fatalf("err=%v forwarded=%v: a pick past the staleness bound must forward", rq.Err, rq.Forwarded)
		}
		if got := r.served(); got[0]+got[1] != 0 {
			t.Fatalf("a replica served a query whose pick lagged: %v", got)
		}
	})

	t.Run("sequential serve order", func(t *testing.T) {
		r := newRouteRig(t, 3, 0)
		order := func(queries int) []int {
			var seq []int
			for q := 0; q < queries; q++ {
				before := r.served()
				if rq := r.fleet.RouteQuery("get_tip", nil, "client", r.now); rq.Err != nil || rq.Forwarded {
					t.Fatalf("query %d: err=%v forwarded=%v", q, rq.Err, rq.Forwarded)
				}
				after := r.served()
				for i := range after {
					if after[i] != before[i] {
						seq = append(seq, i)
					}
				}
			}
			return seq
		}
		if got, want := order(6), []int{1, 2, 0, 1, 2, 0}; !slices.Equal(got, want) {
			t.Fatalf("serve order %v, want the round-robin's %v", got, want)
		}
		r.fleet.replicas[2].Quarantine()
		if got, want := order(4), []int{1, 0, 1, 0}; !slices.Equal(got, want) {
			t.Fatalf("serve order with replica 2 quarantined %v, want %v", got, want)
		}
	})
}
