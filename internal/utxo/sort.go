package utxo

// Canonical get_utxos ordering (§III-C): height descending — newest blocks
// first — with ties broken by txid, then vout, so every replica paginates
// identically. This file holds the comparison helpers shared by the ordered
// address index, the pagination cursor, and the typed sorter.

// utxoBefore reports whether a strictly precedes b in canonical order.
func utxoBefore(a, b *UTXO) bool {
	if a.Height != b.Height {
		return a.Height > b.Height
	}
	if a.OutPoint.TxID != b.OutPoint.TxID {
		return a.OutPoint.TxID.Less(b.OutPoint.TxID)
	}
	return a.OutPoint.Vout < b.OutPoint.Vout
}

// SortUTXOs orders UTXOs canonically: height descending, then txid, then
// vout. The sorter is a hand-rolled introsort typed on []UTXO — unlike the
// reflection-based sort.Slice it needs no comparison closure and performs
// zero allocations, which matters to the overlay merge and the difftest
// oracle that sort on every request.
func SortUTXOs(u []UTXO) {
	if len(u) < 2 {
		return
	}
	// Depth limit 2·⌊log2 n⌋ switches to heapsort on adversarial pivots,
	// keeping the worst case O(n log n) like the stdlib.
	depth := 0
	for n := len(u); n > 0; n >>= 1 {
		depth += 2
	}
	introSortUTXOs(u, depth)
}

const insertionThreshold = 12

func introSortUTXOs(u []UTXO, depth int) {
	for len(u) > insertionThreshold {
		if depth == 0 {
			heapSortUTXOs(u)
			return
		}
		depth--
		p := partitionUTXOs(u)
		// Recurse into the smaller half, loop on the larger: O(log n) stack.
		if p < len(u)-p-1 {
			introSortUTXOs(u[:p], depth)
			u = u[p+1:]
		} else {
			introSortUTXOs(u[p+1:], depth)
			u = u[:p]
		}
	}
	insertionSortUTXOs(u)
}

// partitionUTXOs performs a Lomuto partition around a median-of-three
// pivot and returns the pivot's final index.
func partitionUTXOs(u []UTXO) int {
	m := len(u) / 2
	hi := len(u) - 1
	// Order u[0], u[m], u[hi]; the median lands in u[hi] as the pivot.
	if utxoBefore(&u[m], &u[0]) {
		u[m], u[0] = u[0], u[m]
	}
	if utxoBefore(&u[hi], &u[0]) {
		u[hi], u[0] = u[0], u[hi]
	}
	if utxoBefore(&u[m], &u[hi]) {
		u[m], u[hi] = u[hi], u[m]
	}
	pivot := u[hi]
	i := 0
	for j := 0; j < hi; j++ {
		if utxoBefore(&u[j], &pivot) {
			u[i], u[j] = u[j], u[i]
			i++
		}
	}
	u[i], u[hi] = u[hi], u[i]
	return i
}

func insertionSortUTXOs(u []UTXO) {
	for i := 1; i < len(u); i++ {
		for j := i; j > 0 && utxoBefore(&u[j], &u[j-1]); j-- {
			u[j], u[j-1] = u[j-1], u[j]
		}
	}
}

func heapSortUTXOs(u []UTXO) {
	n := len(u)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownUTXOs(u, i, n)
	}
	for i := n - 1; i > 0; i-- {
		u[0], u[i] = u[i], u[0]
		siftDownUTXOs(u, 0, i)
	}
}

func siftDownUTXOs(u []UTXO, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && utxoBefore(&u[child], &u[child+1]) {
			child++
		}
		if !utxoBefore(&u[root], &u[child]) {
			return
		}
		u[root], u[child] = u[child], u[root]
		root = child
	}
}
