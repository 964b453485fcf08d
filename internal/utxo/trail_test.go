package utxo

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"icbtc/internal/btc"
)

// naiveFold folds blocks through the per-entry ingestNaive loop and returns
// the set with its address keys, plus one key no block pays.
func naiveFold(blocks []*btc.Block, heights []int64) (*Set, []string) {
	naive := New(btc.Regtest)
	for i, blk := range blocks {
		ingestNaive(naive, blk, heights[i])
	}
	keys := []string{"absent"}
	for key := range naive.byAddress {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	return naive, keys
}

// pageWalk reads an address's whole stable view off MergedPage, three coins
// a page.
func pageWalk(t *testing.T, s *Set, key string) []Coin {
	t.Helper()
	var all []Coin
	var token PageToken
	for {
		page, _, next, err := s.MergedPage(key, nil, nil, token, 3)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, page...)
		if next == nil {
			return all
		}
		token = next
	}
}

// TestTrailingIndexSettlesOnEveryReader folds forty blocks, well past
// foldHandoff, with no read in between, so folds wait at the cap and the last
// index halves still trail when the last fold returns, then reads the set
// through one bucket reader first. Every reader must wait for the trailing halves:
// its answers, and every other reader's after it, are the per-entry loop's.
func TestTrailingIndexSettlesOnEveryReader(t *testing.T) {
	blocks, heights := randomBlocks(7, 6)
	if len(blocks) <= foldHandoff {
		t.Fatalf("%d blocks do not fill the handoff of %d", len(blocks), foldHandoff)
	}
	naive, keys := naiveFold(blocks, heights)
	readers := []struct {
		name string
		read func(t *testing.T, s *Set)
	}{
		{"Balance", func(t *testing.T, s *Set) {
			for _, key := range keys {
				if got, want := s.Balance(key), naive.Balance(key); got != want {
					t.Fatalf("%s: balance %d, per-entry loop %d", key, got, want)
				}
			}
		}},
		{"MergedBalance", func(t *testing.T, s *Set) {
			for _, key := range keys {
				total, count := s.MergedBalance(key, nil)
				if total != naive.Balance(key) || count != naive.AddressUTXOCount(key) {
					t.Fatalf("%s: merged balance %d over %d, per-entry loop %d over %d",
						key, total, count, naive.Balance(key), naive.AddressUTXOCount(key))
				}
			}
		}},
		{"MergedPage", func(t *testing.T, s *Set) {
			for _, key := range keys {
				if got, want := pageWalk(t, s, key), CoinsOf(naive.UTXOsForAddress(key)); !slices.Equal(got, want) {
					t.Fatalf("%s: pages %v, per-entry loop %v", key, got, want)
				}
			}
		}},
		{"AddressIter", func(t *testing.T, s *Set) {
			for _, key := range keys {
				var got []UTXO
				it := s.AddressIter(key)
				for u, ok := it.Next(); ok; u, ok = it.Next() {
					got = append(got, u)
				}
				if want := naive.UTXOsForAddress(key); !slices.EqualFunc(got, want, func(a, b UTXO) bool {
					return CoinOf(a) == CoinOf(b) && bytes.Equal(a.PkScript, b.PkScript)
				}) {
					t.Fatalf("%s: iterator %v, per-entry loop %v", key, got, want)
				}
			}
		}},
		{"AddressUTXOCount", func(t *testing.T, s *Set) {
			for _, key := range keys {
				if got, want := s.AddressUTXOCount(key), naive.AddressUTXOCount(key); got != want {
					t.Fatalf("%s: %d UTXOs, per-entry loop %d", key, got, want)
				}
			}
		}},
		{"AddressCount", func(t *testing.T, s *Set) {
			if got, want := s.AddressCount(), naive.AddressCount(); got != want {
				t.Fatalf("%d addresses, per-entry loop %d", got, want)
			}
		}},
		{"UTXOsForAddress", func(t *testing.T, s *Set) {
			for _, key := range keys {
				if got, want := CoinsOf(s.UTXOsForAddress(key)), CoinsOf(naive.UTXOsForAddress(key)); !slices.Equal(got, want) {
					t.Fatalf("%s: UTXOs %v, per-entry loop %v", key, got, want)
				}
			}
		}},
		{"EncodeTo", func(t *testing.T, s *Set) {
			if !bytes.Equal(encodeSet(s), encodeSet(naive)) {
				t.Fatal("encoded set differs from the per-entry loop's")
			}
		}},
	}
	for _, first := range readers {
		t.Run(first.name, func(t *testing.T) {
			s := New(btc.Regtest)
			for i, blk := range blocks {
				s.ApplyBlockIngest(blk, heights[i])
			}
			first.read(t, s)
			for _, r := range readers {
				r.read(t, s)
			}
			checkIndexInvariants(t, s)
		})
	}
}

// TestTrailingIndexBehindReadLock uses a set the way a read replica does: a
// writer folds under the write lock and returns with the index half still
// trailing, while readers read balances and pages under the read lock. Every
// answer must be the per-entry loop's after exactly the blocks folded so far.
// Run it with -race: the readers' settle and the trailing goroutines share
// the buckets.
func TestTrailingIndexBehindReadLock(t *testing.T) {
	blocks, heights := randomBlocks(11, 4)
	_, keys := naiveFold(blocks, heights)
	naive := New(btc.Regtest)
	// want[n][key] is the address's balance and page walk after n blocks.
	type view struct {
		balance int64
		coins   []Coin
	}
	want := make([]map[string]view, len(blocks)+1)
	for n := 0; ; n++ {
		want[n] = make(map[string]view)
		for key := range naive.byAddress {
			want[n][key] = view{naive.Balance(key), CoinsOf(naive.UTXOsForAddress(key))}
		}
		if n == len(blocks) {
			break
		}
		ingestNaive(naive, blocks[n], heights[n])
	}

	s := New(btc.Regtest)
	var mu sync.RWMutex
	folded := 0
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				key := keys[i%len(keys)]
				mu.RLock()
				n := folded
				balance := s.Balance(key)
				var coins []Coin
				for token := PageToken(nil); ; {
					page, _, next, err := s.MergedPage(key, nil, nil, token, 4)
					if err != nil {
						t.Error(err)
						break
					}
					coins = append(coins, page...)
					if token = next; next == nil {
						break
					}
				}
				mu.RUnlock()
				if w := want[n][key]; balance != w.balance || !slices.Equal(coins, w.coins) {
					t.Errorf("after %d blocks, %s: balance %d and %d coins, per-entry loop %d and %d",
						n, key, balance, len(coins), w.balance, len(w.coins))
					return
				}
			}
		}(r)
	}
	for i, blk := range blocks {
		mu.Lock()
		s.ApplyBlockIngest(blk, heights[i])
		folded++
		mu.Unlock()
	}
	close(done)
	wg.Wait()
}
