package utxo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"icbtc/internal/btc"
)

// Pagination for get_utxos (§III-C): responses for addresses holding many
// UTXOs are split into pages; the response carries an opaque "next page
// reference" the caller passes back to resume. Because UTXOs are sorted by
// height descending with a deterministic tie-break, a (height, outpoint)
// cursor identifies a stable resumption point even while new blocks arrive
// above the cursor height.

// Coin is one entry of a get_utxos page: the IC Bitcoin API's utxo record,
// (outpoint, value, height), with no script. The caller asked by address,
// and the address names the script (btc.PayToAddrScript); a "script:<hash>"
// key's caller already holds the script it hashed. So a page is 56 bytes
// an entry and holds no pointer: the collector never scans it, fresh or
// retained by the response cache.
type Coin struct {
	OutPoint btc.OutPoint
	Value    int64
	Height   int64
}

// CoinOf is the page entry of a UTXO.
func CoinOf(u UTXO) Coin {
	return Coin{OutPoint: u.OutPoint, Value: u.Value, Height: u.Height}
}

// CoinsOf maps a list of UTXOs to page entries, order kept.
func CoinsOf(list []UTXO) []Coin {
	coins := make([]Coin, len(list))
	for i := range list {
		coins[i] = CoinOf(list[i])
	}
	return coins
}

// PageToken is the opaque next-page reference.
type PageToken []byte

// pageCursor is the decoded form of a PageToken.
type pageCursor struct {
	height int64
	op     btc.OutPoint
}

// cursorLen is the length of every token: height, txid, vout.
const cursorLen = 8 + btc.HashSize + 4

func encodeCursor(c pageCursor) PageToken {
	tok := make(PageToken, cursorLen)
	binary.BigEndian.PutUint64(tok, uint64(c.height))
	copy(tok[8:], c.op.TxID[:])
	binary.BigEndian.PutUint32(tok[8+btc.HashSize:], c.op.Vout)
	return tok
}

// ErrBadPageToken is returned for malformed next-page references.
var ErrBadPageToken = errors.New("utxo: malformed page token")

func decodeCursor(tok PageToken) (pageCursor, error) {
	if len(tok) != cursorLen {
		return pageCursor{}, fmt.Errorf("%w: length %d", ErrBadPageToken, len(tok))
	}
	var c pageCursor
	c.height = int64(binary.BigEndian.Uint64(tok[:8]))
	copy(c.op.TxID[:], tok[8:8+btc.HashSize])
	c.op.Vout = binary.BigEndian.Uint32(tok[8+btc.HashSize:])
	return c, nil
}

// Page selects up to limit UTXOs from the canonically sorted list, resuming
// after the position encoded in token (nil for the first page). It returns
// the page, as coins, and the token for the next page (nil when exhausted).
func Page(sorted []UTXO, token PageToken, limit int) ([]Coin, PageToken, error) {
	if limit <= 0 {
		return nil, nil, fmt.Errorf("utxo: page limit must be positive, got %d", limit)
	}
	start := 0
	if len(token) != 0 {
		cur, err := decodeCursor(token)
		if err != nil {
			return nil, nil, err
		}
		// Resume strictly after the cursor position in canonical order.
		// cursorBefore is monotone along the sorted input, so the resumption
		// point is a binary search — deep pagination used to linear-scan from
		// element 0 on every page, making a full walk quadratic.
		start = sort.Search(len(sorted), func(i int) bool { return cursorBefore(cur, sorted[i]) })
	}
	end := start + limit
	if end > len(sorted) {
		end = len(sorted)
	}
	page := CoinsOf(sorted[start:end])
	if end == len(sorted) {
		return page, nil, nil
	}
	last := sorted[end-1]
	return page, encodeCursor(pageCursor{height: last.Height, op: last.OutPoint}), nil
}

// cursorBefore reports whether the cursor strictly precedes u in canonical
// (height-descending) order, meaning u belongs to a later page position.
func cursorBefore(c pageCursor, u UTXO) bool {
	if c.height != u.Height {
		return c.height > u.Height
	}
	if c.op.TxID != u.OutPoint.TxID {
		return c.op.TxID.Less(u.OutPoint.TxID)
	}
	return c.op.Vout < u.OutPoint.Vout
}
