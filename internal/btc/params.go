package btc

import "time"

// Params bundles the per-network consensus parameters the simulation uses.
type Params struct {
	Network Network
	// GenesisHeader is the hard-coded genesis block header the adapter
	// starts syncing from.
	GenesisHeader BlockHeader
	// PowLimitBits is the easiest allowed difficulty target in compact form.
	PowLimitBits uint32
	// TargetBlockInterval is the intended spacing between blocks.
	TargetBlockInterval time.Duration
	// DifficultyAdjustmentWindow is the number of blocks between retargets
	// (Bitcoin: 2016). The simulation keeps difficulty fixed unless a test
	// exercises retargeting.
	DifficultyAdjustmentWindow int
	// CoinbaseMaturity is the number of blocks before a coinbase output may
	// be spent (Bitcoin: 100; regtest simulation uses a smaller value).
	CoinbaseMaturity int
	// BlockSubsidy is the coinbase reward in satoshi (halvings are not
	// simulated; the UTXO-set dynamics do not depend on them).
	BlockSubsidy int64
}

// regtestPowBits allows virtually every hash, so mining is a handful of
// attempts: target = 2^255-ish. Compact 0x207fffff is Bitcoin's regtest limit.
const regtestPowBits = 0x207fffff

// simPowBits is a mildly harder target used by simulated mainnet/testnet so
// that difficulty-based work values are meaningfully large while mining stays
// laptop-scale (expected ~256 hash attempts).
const simPowBits = 0x1f7fffff

// newGenesis builds a deterministic genesis header for a network.
func newGenesis(network Network, bits uint32) BlockHeader {
	// The Merkle root commits to the network name so the three networks
	// have distinct genesis hashes, as in Bitcoin.
	root := DoubleSHA256([]byte("icbtc-genesis-" + network.String()))
	return BlockHeader{
		Version:    1,
		PrevBlock:  ZeroHash,
		MerkleRoot: root,
		Timestamp:  1231006505, // Bitcoin's genesis timestamp, reused for flavor
		Bits:       bits,
		Nonce:      0,
	}
}

// MainnetParams returns the simulated-mainnet parameter set.
func MainnetParams() *Params {
	return &Params{
		Network:                    Mainnet,
		GenesisHeader:              newGenesis(Mainnet, simPowBits),
		PowLimitBits:               simPowBits,
		TargetBlockInterval:        10 * time.Minute,
		DifficultyAdjustmentWindow: 2016,
		CoinbaseMaturity:           100,
		BlockSubsidy:               50 * SatoshiPerBitcoin,
	}
}

// TestnetParams returns the simulated-testnet parameter set.
func TestnetParams() *Params {
	return &Params{
		Network:                    Testnet,
		GenesisHeader:              newGenesis(Testnet, simPowBits),
		PowLimitBits:               simPowBits,
		TargetBlockInterval:        10 * time.Minute,
		DifficultyAdjustmentWindow: 2016,
		CoinbaseMaturity:           100,
		BlockSubsidy:               50 * SatoshiPerBitcoin,
	}
}

// RegtestParams returns the regtest parameter set used by most tests.
func RegtestParams() *Params {
	return &Params{
		Network:             Regtest,
		GenesisHeader:       newGenesis(Regtest, regtestPowBits),
		PowLimitBits:        regtestPowBits,
		TargetBlockInterval: time.Second,
		// Regtest never retargets, as in Bitcoin.
		DifficultyAdjustmentWindow: 0,
		// Maturity 1 keeps rewards spendable as soon as they are mined —
		// the rule itself is exercised with custom parameters in tests.
		CoinbaseMaturity: 1,
		BlockSubsidy:     50 * SatoshiPerBitcoin,
	}
}

// ParamsForNetwork returns the parameter set for a network.
func ParamsForNetwork(n Network) *Params {
	switch n {
	case Mainnet:
		return MainnetParams()
	case Testnet:
		return TestnetParams()
	default:
		return RegtestParams()
	}
}
