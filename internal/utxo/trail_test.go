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

// TestTrailingIndexReusesNoSlotItMayRead folds blocks at one repeated height,
// so every block's outputs merge into one height group of one address. Each
// transaction spends two entries of that group — one the block before
// created, which a trailing index half may not have merged yet, and one
// older — and then creates two outputs, which the table puts into the slots
// it freed last if they are free. The merge sorts the group by reading its
// entries' outpoints through their refs, and a removal finds its ref the
// same way; a slot reused before every index half that may read it has run
// would make either read another entry's outpoint. Each block ends with a
// transaction paying more than half a chunk of outputs to other addresses
// (its input is missing, which the fold tolerates), so the
// next block's table half appends an arena chunk while this block's index
// half still reads the arena: under -race, an index half that resolved refs
// through the table's own chunk list would race with that append. The
// trailing fold must end as the stepped fold and the per-entry loop do.
func TestTrailingIndexReusesNoSlotItMayRead(t *testing.T) {
	const height = 7
	script := btc.PayToPubKeyHashScript([20]byte{1})
	fillers := make([][]byte, 64)
	for i := range fillers {
		fillers[i] = btc.PayToPubKeyHashScript([20]byte{2, byte(i)})
	}
	var (
		blocks  []*btc.Block
		heights []int64
		group   []btc.OutPoint // outputs to script not yet spent, oldest first
		serial  uint32
	)
	for b := 0; b < 4*foldHandoff; b++ {
		serial++
		blk := &btc.Block{Transactions: []*btc.Transaction{{Version: 2, LockTime: serial,
			Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff}}},
			Outputs: []btc.TxOut{{Value: 50, PkScript: fillers[0]}}}}}
		var created []btc.OutPoint
		for k := 0; k < 3; k++ {
			serial++
			tx := &btc.Transaction{Version: 2, LockTime: serial}
			if len(group) >= 2 {
				newest, oldest := len(group)-1, len(group)/3
				tx.Inputs = append(tx.Inputs, btc.TxIn{PreviousOutPoint: group[newest]}, btc.TxIn{PreviousOutPoint: group[oldest]})
				group = slices.Delete(group, newest, newest+1)
				group = slices.Delete(group, oldest, oldest+1)
			} else {
				tx.Inputs = append(tx.Inputs, btc.TxIn{PreviousOutPoint: btc.OutPoint{TxID: btc.Hash{0xee, byte(serial)}}})
			}
			for v := range 2 {
				tx.Outputs = append(tx.Outputs, btc.TxOut{Value: int64(serial)*10 + int64(v), PkScript: script})
			}
			for v := range tx.Outputs {
				created = append(created, btc.OutPoint{TxID: tx.TxID(), Vout: uint32(v)})
			}
			blk.Transactions = append(blk.Transactions, tx)
		}
		serial++
		filler := &btc.Transaction{Version: 2, LockTime: serial,
			Inputs: []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.Hash{0xee, byte(serial)}}}}}
		for v := range chunkSize/2 + 8 {
			filler.Outputs = append(filler.Outputs, btc.TxOut{Value: 50, PkScript: fillers[v%len(fillers)]})
		}
		blk.Transactions = append(blk.Transactions, filler)
		// The block's outputs join the group after its spends: a transaction
		// spends outputs of earlier blocks only.
		group = append(group, created...)
		blocks, heights = append(blocks, blk), append(heights, height)
	}

	stepped, trailing := foldBothWays(t, blocks, heights)
	naive, keys := naiveFold(blocks, heights)
	for _, s := range []*Set{stepped, trailing} {
		checkIndexInvariants(t, s)
		for _, key := range keys {
			if got, want := pageWalk(t, s, key), CoinsOf(naive.UTXOsForAddress(key)); !slices.Equal(got, want) {
				t.Fatalf("%s: pages %v, per-entry loop %v", key, got, want)
			}
		}
	}
	if n := trailing.AddressUTXOCount(naive.scripts[naive.interned[string(script)]].key); n != len(group) {
		t.Fatalf("the group holds %d entries, want %d", n, len(group))
	}
	if n := len(trailing.table.chunks); n < 2*foldHandoff {
		t.Fatalf("the arena has %d chunks: too few appends while index halves trail", n)
	}
}
