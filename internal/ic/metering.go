package ic

// Instruction metering: the execution layer charges every canister
// operation against a deterministic cost model, standing in for the
// WebAssembly instruction counter of the production IC. The constants were
// originally calibrated so the headline figures land in the paper's ranges
// (block ingestion ≈ 20 B instructions for a full block, get_utxos between
// ~6 M and ~5·10⁸ instructions — Figures 6 and 7); the ordered address
// index and script interning recalibrate the affected constants downward to
// match the measured work of the indexed implementation, so the reproduced
// figures now sit deliberately *below* the paper's costs. The *shape* of
// every curve still comes from the canister algorithms, not the constants.

// Cost model constants, in "instructions".
const (
	// CostPerOutputInsert prices inserting one output whose locking script
	// is not yet interned: address decode + hash + index insert.
	CostPerOutputInsert = 4_000_000
	// CostPerOutputInsertInterned prices inserting one output whose script
	// the set has already seen: the decode/hash is a memo probe, leaving the
	// ordered-bucket insert and outpoint-map write.
	CostPerOutputInsertInterned = 2_600_000
	// CostPerInputRemove prices removing one spent input. Entries store
	// their derived address key, so a removal no longer re-derives the
	// ScriptID of the spent output's script (it used to cost 4 M).
	CostPerInputRemove = 3_000_000
	// CostPerTxOverhead prices per-transaction bookkeeping in ingestion.
	// Transaction IDs are memoized per block (computed when the block's
	// delta is built), so stable ingestion no longer re-serializes and
	// re-hashes every transaction.
	CostPerTxOverhead = 200_000
	// CostBlockOverhead prices per-block header/validation work.
	CostBlockOverhead = 30_000_000
	// CostRequestBase prices fixed request handling (decode, dispatch).
	CostRequestBase = 5_500_000
	// CostPerUTXOStable prices fetching one UTXO from the large stable set
	// via the naive path that copies and re-sorts a whole address bucket;
	// only the replay oracle still pays it.
	CostPerUTXOStable = 450_000
	// CostPerUTXOStableIndexed prices streaming one UTXO off the ordered
	// address index: the bucket is already canonically sorted, so a page is
	// a cursor seek plus a bounded copy.
	CostPerUTXOStableIndexed = 250_000
	// CostPerIndexSeek prices positioning a page cursor in the ordered
	// index (one binary search per request).
	CostPerIndexSeek = 50_000
	// CostPerUTXOUnstable prices fetching one UTXO from unstable blocks
	// (cheaper: "UTXOs in unstable blocks can be fetched more quickly",
	// the bifurcation in Fig 7 right).
	CostPerUTXOUnstable = 110_000
	// CostPerBalanceUTXO prices summing one UTXO for get_balance. Balances
	// are nearly flat-cost (the paper's ~35,000 requests per dollar imply a
	// request dominated by the fixed base).
	CostPerBalanceUTXO = 3_000
	// CostPerUnstableBlockScan prices walking one unstable block during an
	// address view — the linear-in-δ term of §III-C. Only the naive replay
	// read path (the differential oracle) pays it; the overlay read path
	// replaces it with the per-delta costs below.
	CostPerUnstableBlockScan = 200_000
	// CostPerDeltaLookup prices consulting one unstable block's
	// address-indexed delta during an overlay read: two map lookups instead
	// of a full block scan, so the δ-proportional term almost vanishes.
	CostPerDeltaLookup = 2_000
	// CostPerDeltaEntry prices applying one created/spent delta entry for
	// the queried address while merging the overlay view.
	CostPerDeltaEntry = 2_000
	// CostPerDeltaBuildTx prices indexing one transaction into a block's
	// delta at ingestion time — the one-time work that amortizes the
	// per-request block scans away.
	CostPerDeltaBuildTx = 60_000
	// CostBalanceCacheHit prices serving get_balance from the balance the
	// canister's read memo keeps for an (address, confirmations) pair.
	CostBalanceCacheHit = 40_000
	// CostFeeCacheHit prices serving get_current_fee_percentiles from the
	// canister's read memo instead of rescanning every unstable block.
	CostFeeCacheHit = 60_000
	// CostThresholdSignature prices one threshold signing round.
	CostThresholdSignature = 26_000_000_000 / 1000 // per-canister share
	// CostInterCanisterCall prices call setup/teardown.
	CostInterCanisterCall = 1_000_000
	// CostPerHeaderValidation prices one block-header check.
	CostPerHeaderValidation = 500_000
)

// meterCategories caps the distinct categories one meter tracks. The
// codebase uses ~16 constant category strings; charges beyond the cap keep
// the total exact and fold their attribution into the last slot.
const meterCategories = 24

// catCount is one category's accumulated charge.
type catCount struct {
	name string
	n    uint64
}

// Meter accumulates instructions charged during one execution, broken down
// by category so experiments can attribute cost (Fig 6 right separates
// "insert outputs" from "remove inputs"). The breakdown lives in a fixed
// inline array rather than a map: the zero value is ready to use and
// charging never allocates, which keeps metered hot paths (a charge per
// returned UTXO) allocation-free.
type Meter struct {
	total uint64
	n     int
	cats  [meterCategories]catCount
}

// NewMeter creates an empty meter.
func NewMeter() *Meter { return &Meter{} }

// Charge adds n instructions under a category. Category strings should be
// constants: the common case is a pointer-equal string compare against a
// handful of live slots.
func (m *Meter) Charge(n uint64, category string) {
	m.total += n
	for i := 0; i < m.n; i++ {
		if m.cats[i].name == category {
			m.cats[i].n += n
			return
		}
	}
	if m.n < meterCategories {
		m.cats[m.n] = catCount{name: category, n: n}
		m.n++
		return
	}
	// Overflow: keep the total exact, fold attribution into the last slot.
	m.cats[meterCategories-1].n += n
}

// Total returns the instructions charged so far.
func (m *Meter) Total() uint64 { return m.total }

// Category returns the instructions charged under one category.
func (m *Meter) Category(c string) uint64 {
	for i := 0; i < m.n; i++ {
		if m.cats[i].name == c {
			return m.cats[i].n
		}
	}
	return 0
}

// Reset clears the meter for reuse.
func (m *Meter) Reset() {
	*m = Meter{}
}

// CyclesPerInstruction converts instructions to cycles (the IC's fee unit).
// The production rate is 1 cycle per 10 instructions on application subnets;
// combined with CyclesPerUSD this reproduces the paper's "35,000 balance
// requests / 1,500 UTXO requests per dollar" arithmetic.
const CyclesPerInstruction = 0.4

// CyclesPerUSD is the (fixed) cycles-per-dollar rate: 1 USD buys ~7.3e11
// cycles at the SDR peg used in the paper's time frame.
const CyclesPerUSD = 7.3e11

// InstructionsToUSD converts an instruction count to U.S. dollars.
func InstructionsToUSD(instructions uint64) float64 {
	return float64(instructions) * CyclesPerInstruction / CyclesPerUSD
}
