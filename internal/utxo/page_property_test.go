package utxo

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"icbtc/internal/btc"
)

// Property tests for the pagination cursor and the Page walk: the cursor
// must round-trip, and a full page walk must reproduce the canonical list
// exactly — no UTXO duplicated, none dropped — for any limit.

func randomCursor(rng *rand.Rand) pageCursor {
	var c pageCursor
	c.height = rng.Int63()
	rng.Read(c.op.TxID[:])
	c.op.Vout = rng.Uint32()
	return c
}

func TestCursorRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 2000; i++ {
		c := randomCursor(rng)
		got, err := decodeCursor(encodeCursor(c))
		if err != nil {
			t.Fatalf("round-trip %d: %v", i, err)
		}
		if got != c {
			t.Fatalf("round-trip %d: got %+v, want %+v", i, got, c)
		}
	}
}

// randomSortedUTXOs builds a canonically sorted list with deliberately
// heavy height collisions so tie-breaking is exercised.
func randomSortedUTXOs(rng *rand.Rand, n int) []UTXO {
	out := make([]UTXO, n)
	seen := make(map[btc.OutPoint]bool, n)
	for i := range out {
		var op btc.OutPoint
		for {
			rng.Read(op.TxID[:2]) // tiny keyspace → txid collisions across entries
			op.Vout = uint32(rng.Intn(3))
			if !seen[op] {
				seen[op] = true
				break
			}
		}
		out[i] = UTXO{
			OutPoint: op,
			Value:    int64(rng.Intn(10_000)),
			PkScript: []byte{0x76, byte(rng.Intn(4))},
			Height:   int64(rng.Intn(5)), // few distinct heights → many ties
		}
	}
	SortUTXOs(out)
	return out
}

func TestPageWalkNeverDuplicatesOrDrops(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(120)
		sorted := randomSortedUTXOs(rng, n)
		limit := 1 + rng.Intn(10)

		var walked []Coin
		var token PageToken
		for pages := 0; ; pages++ {
			if pages > n+2 {
				t.Fatalf("trial %d: walk did not terminate", trial)
			}
			page, next, err := Page(sorted, token, limit)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if len(page) > limit {
				t.Fatalf("trial %d: page of %d exceeds limit %d", trial, len(page), limit)
			}
			walked = append(walked, page...)
			if next == nil {
				break
			}
			if len(page) == 0 {
				t.Fatalf("trial %d: empty page with non-nil continuation", trial)
			}
			token = next
		}
		if len(walked) != len(sorted) {
			t.Fatalf("trial %d: walked %d of %d UTXOs", trial, len(walked), len(sorted))
		}
		for i := range walked {
			if walked[i] != CoinOf(sorted[i]) {
				t.Fatalf("trial %d: position %d diverged: %+v vs %+v", trial, i, walked[i], sorted[i])
			}
		}
	}
}

func TestPageResumeIsStableUnderGrowth(t *testing.T) {
	// New UTXOs arriving ABOVE the cursor height (new blocks) must not
	// disturb resumption: the cursor identifies a position by (height,
	// outpoint), not by index.
	rng := rand.New(rand.NewSource(43))
	sorted := randomSortedUTXOs(rng, 50)
	first, token, err := Page(sorted, nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Prepend higher-height arrivals.
	grown := append(randomHigherUTXOs(rng, 10, 100), sorted...)
	SortUTXOs(grown)
	rest, _, err := Page(grown, token, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want := sorted[len(first):]
	if len(rest) != len(want) {
		t.Fatalf("resumed %d, want %d", len(rest), len(want))
	}
	for i := range rest {
		if rest[i].OutPoint != want[i].OutPoint {
			t.Fatalf("resumption diverged at %d", i)
		}
	}
}

func randomHigherUTXOs(rng *rand.Rand, n int, baseHeight int64) []UTXO {
	out := make([]UTXO, n)
	for i := range out {
		var op btc.OutPoint
		rng.Read(op.TxID[:])
		out[i] = UTXO{OutPoint: op, Height: baseHeight + int64(i)}
	}
	return out
}

// TestCoinHoldsNoPointer: a page entry is memory the collector never scans,
// in the page and in every cached answer. Any field that is or holds a
// pointer — a script slice, a string, a map — fails the walk.
func TestCoinHoldsNoPointer(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("%s is a %s: a page entry holds no pointer", path, typ.Kind())
		}
	}
	walk("Coin", reflect.TypeOf(Coin{}))
	if size := unsafe.Sizeof(Coin{}); size != 56 {
		t.Errorf("a coin is %d bytes, want 56: outpoint, value, height", size)
	}
}

func TestMalformedPageTokensRejected(t *testing.T) {
	sorted := randomSortedUTXOs(rand.New(rand.NewSource(44)), 10)
	good := encodeCursor(pageCursor{height: 3})
	bad := [][]byte{
		{0x01},                               // far too short
		good[:len(good)-1],                   // truncated by one byte
		append(good, 0x00),                   // one byte too long
		make([]byte, 2*len(good)),            // wrong length entirely
		make([]byte, len(good)-btc.HashSize), // missing the txid
	}
	for i, tok := range bad {
		if _, _, err := Page(sorted, tok, 5); !errors.Is(err, ErrBadPageToken) {
			t.Errorf("token %d: got %v, want ErrBadPageToken", i, err)
		}
	}
	// Zero or negative limits are errors, not silent empties.
	if _, _, err := Page(sorted, nil, 0); err == nil {
		t.Error("limit 0 accepted")
	}
}
