// Package core wires the full architecture of the paper together (Figures
// 1 and 4): a simulated Bitcoin network, an IC subnet of 3f+1 replicas each
// running a Bitcoin adapter, and the Bitcoin canister consuming adapter
// responses through consensus payloads. It is the public API a downstream
// application uses:
//
//	integ, _ := core.New(core.Options{})
//	integ.Start()
//	integ.MineBlocks(10)
//	bal, res, _ := integ.GetBalance(addr, 0, false)
//
// Everything runs on virtual time (a deterministic discrete-event
// scheduler), so seconds of simulated latency cost microseconds of wall
// clock and every run is reproducible from its seed.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/btcnode"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
	"icbtc/internal/secp256k1"
	"icbtc/internal/simnet"
	"icbtc/internal/utxo"
)

// BitcoinCanisterID is the well-known ID of the Bitcoin canister.
const BitcoinCanisterID ic.CanisterID = "bitcoin"

// Options configures an Integration. Zero values select the defaults noted
// on each field.
type Options struct {
	// Network is the Bitcoin network flavor (default Regtest).
	Network btc.Network
	// BitcoinNodes is the number of honest Bitcoin nodes (default 8).
	BitcoinNodes int
	// AdversarialBitcoinNodes adds attacker-controlled Bitcoin nodes.
	AdversarialBitcoinNodes int
	// Subnet overrides the IC subnet configuration (default
	// ic.DefaultConfig with threshold keys enabled).
	Subnet *ic.Config
	// Adapter overrides the adapter configuration (default per network,
	// with discovery thresholds suitable for the simulated population).
	Adapter *adapter.Config
	// Canister overrides the Bitcoin canister configuration.
	Canister *canister.Config
	// Seed drives all randomness (default 1).
	Seed int64
	// MinerSeed derives the miner's payout key (default Seed+1000).
	MinerSeed int64
}

// Integration is a fully wired instance of the architecture.
type Integration struct {
	Sched    *simnet.Scheduler
	Net      *simnet.Network
	Params   *btc.Params
	Bitcoin  *btcnode.SimNetwork
	Subnet   *ic.Subnet
	Adapters []*adapter.Adapter
	Canister *canister.BitcoinCanister

	miner    *btcnode.Miner
	minerKey *secp256k1.PrivateKey
	started  bool
}

// New builds an Integration per the options. Call Start to begin consensus
// and adapter syncing.
func New(opts Options) (*Integration, error) {
	if opts.Network == 0 {
		opts.Network = btc.Regtest
	}
	if opts.BitcoinNodes == 0 {
		opts.BitcoinNodes = 8
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.MinerSeed == 0 {
		opts.MinerSeed = opts.Seed + 1000
	}

	sched := simnet.NewScheduler(opts.Seed)
	net := simnet.NewNetwork(sched)
	params := btc.ParamsForNetwork(opts.Network)

	sim := btcnode.BuildHonestNetwork(net, params, opts.BitcoinNodes)
	if opts.AdversarialBitcoinNodes > 0 {
		sim.AddAdversaries(opts.AdversarialBitcoinNodes)
	}

	subnetCfg := ic.DefaultConfig()
	if opts.Subnet != nil {
		subnetCfg = *opts.Subnet
	}
	subnetCfg.Seed = opts.Seed
	subnet, err := ic.NewSubnet(sched, subnetCfg)
	if err != nil {
		return nil, fmt.Errorf("core: building subnet: %w", err)
	}

	canCfg := canister.DefaultConfig(opts.Network)
	if opts.Canister != nil {
		canCfg = *opts.Canister
	}
	btcCan := canister.New(canCfg)
	subnet.InstallCanister(BitcoinCanisterID, btcCan)

	adCfg := adapter.ConfigForNetwork(opts.Network)
	if opts.Adapter != nil {
		adCfg = *opts.Adapter
	} else {
		// The simulated population is far smaller than mainnet's; scale the
		// discovery thresholds so every adapter can fill its address book.
		adCfg.AddrLowWater = 1
		adCfg.AddrHighWater = opts.BitcoinNodes + opts.AdversarialBitcoinNodes
		if adCfg.Connections > opts.BitcoinNodes {
			adCfg.Connections = opts.BitcoinNodes
		}
	}

	integ := &Integration{
		Sched:    sched,
		Net:      net,
		Params:   params,
		Bitcoin:  sim,
		Subnet:   subnet,
		Canister: btcCan,
	}

	// One adapter per replica, each with its own random peer connections;
	// the replica's payload builder runs Algorithm 1 against the canister's
	// current (deterministic) request. The canister is resolved through the
	// subnet per round — never captured — so an UpgradeCanister swap (which
	// replaces the installed instance) is picked up immediately instead of
	// building payloads against the frozen pre-upgrade state forever.
	for i, replica := range subnet.Replicas() {
		ad := adapter.New(simnet.NodeID(fmt.Sprintf("adapter/%d", i)), net, params, sim.Directory, adCfg)
		integ.Adapters = append(integ.Adapters, ad)
		replica.SetPayloadBuilder(BitcoinCanisterID, ic.PayloadBuilderFunc(func() any {
			can, ok := subnet.Canister(BitcoinCanisterID).(*canister.BitcoinCanister)
			if !ok {
				return nil
			}
			resp := ad.HandleRequest(can.CurrentRequest())
			if len(resp.Blocks) == 0 && len(resp.Next) == 0 && can.PendingTransactions() == 0 {
				return nil
			}
			return resp
		}))
	}

	key, err := secp256k1.GeneratePrivateKey(rand.New(rand.NewSource(opts.MinerSeed)))
	if err != nil {
		return nil, fmt.Errorf("core: miner key: %w", err)
	}
	integ.minerKey = key
	if len(sim.Nodes) > 0 {
		integ.miner = btcnode.NewMinerWithKey(sim.Nodes[0], key)
	}
	return integ, nil
}

// Start launches the subnet round loop and all adapters.
func (in *Integration) Start() {
	if in.started {
		return
	}
	in.started = true
	in.Subnet.Start()
	for _, ad := range in.Adapters {
		ad.Start()
	}
}

// RunFor advances virtual time.
func (in *Integration) RunFor(d time.Duration) { in.Sched.RunFor(d) }

// Now returns the current virtual time.
func (in *Integration) Now() time.Time { return in.Sched.Now() }

// MinerAddress returns the address collecting block rewards.
func (in *Integration) MinerAddress() btc.Address {
	return btc.AddressFromPubKey(in.minerKey.PubKey().SerializeCompressed(), in.Params.Network)
}

// MinerSpend builds a transaction paying pays, and fee, out of the miner's
// block rewards as node 0 sees them, signed with the miner's key: how
// examples and tests put bitcoin somewhere before a canister takes over.
func (in *Integration) MinerSpend(pays []Payment, fee int64) (*btc.Transaction, error) {
	miner := in.MinerAddress()
	coins := utxo.CoinsOf(in.Bitcoin.Nodes[0].UTXOView().UTXOsForAddress(miner.String()))
	tx, _, err := buildSpend(coins, pays, fee, miner, func(tx *btc.Transaction, i int, pkScript []byte) error {
		return btc.SignInput(tx, i, pkScript, in.minerKey)
	})
	return tx, err
}

// FundAddress sends amount from the miner's rewards to target and mines the
// payment in.
func FundAddress(in *Integration, target string, amount int64) (btc.Hash, error) {
	tx, err := in.MinerSpend([]Payment{{To: target, Amount: amount}}, 1000)
	if err != nil {
		return btc.Hash{}, err
	}
	if !in.Bitcoin.Nodes[0].AcceptTx(tx) {
		return btc.Hash{}, errors.New("core: funding tx rejected")
	}
	if _, err := in.MineBlocks(1); err != nil {
		return btc.Hash{}, err
	}
	return tx.TxID(), nil
}

// MineBlocks mines n blocks on the Bitcoin network, letting gossip settle
// between blocks, and returns the new chain height.
func (in *Integration) MineBlocks(n int) (int64, error) {
	if in.miner == nil {
		return 0, errors.New("core: no Bitcoin nodes to mine on")
	}
	for i := 0; i < n; i++ {
		if _, err := in.miner.Mine(0); err != nil {
			return 0, fmt.Errorf("core: mining block %d: %w", i, err)
		}
		in.RunFor(2 * time.Second)
	}
	return in.Bitcoin.Nodes[0].Height(), nil
}

// UpgradeBitcoinCanister performs a canister upgrade round on the running
// integration: the Bitcoin canister is snapshotted, reinstalled from its
// own stable-state bytes, and the new instance takes over under the same
// ID. The payload builders resolve the canister through the subnet each
// round, so the pipeline continues seamlessly; the convenience handle
// (in.Canister) is refreshed here.
func (in *Integration) UpgradeBitcoinCanister() error {
	if err := in.Subnet.UpgradeCanister(BitcoinCanisterID, func(snapshot []byte) (ic.Canister, error) {
		return canister.RestoreSnapshot(snapshot)
	}); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	in.Canister = in.Subnet.Canister(BitcoinCanisterID).(*canister.BitcoinCanister)
	return nil
}

// ErrTimeout is returned by Await helpers when the condition does not hold
// within the budget.
var ErrTimeout = errors.New("core: condition not reached in time")

// AwaitCanisterHeight runs the simulation until the Bitcoin canister holds
// the blocks (not just headers) up to the given height and reports synced,
// or the virtual-time budget elapses.
func (in *Integration) AwaitCanisterHeight(height int64, budget time.Duration) error {
	ok := func() bool {
		return in.Canister.AvailableHeight() >= height && in.Canister.Synced()
	}
	deadline := in.Sched.Now().Add(budget)
	for in.Sched.Now().Before(deadline) {
		if ok() {
			return nil
		}
		in.RunFor(500 * time.Millisecond)
	}
	if ok() {
		return nil
	}
	return fmt.Errorf("%w: canister has blocks to height %d (headers to %d), want %d",
		ErrTimeout, in.Canister.AvailableHeight(), in.Canister.TipHeight(), height)
}

// GetBalance fetches an address balance, replicated (certified, slow) or as
// a query (fast, uncertified). It blocks in virtual time until the response
// arrives and returns the balance plus the full result envelope.
func (in *Integration) GetBalance(address string, minConfirmations int64, replicated bool) (int64, ic.Result, error) {
	args := canister.GetBalanceArgs{Address: address, MinConfirmations: minConfirmations}
	res, err := in.call(BitcoinCanisterID, "get_balance", args, replicated)
	if err != nil {
		return 0, res, err
	}
	bal, ok := res.Value.(int64)
	if !ok {
		return 0, res, fmt.Errorf("core: unexpected balance type %T", res.Value)
	}
	return bal, res, nil
}

// GetUTXOs fetches the UTXOs of an address (optionally filtered/paginated).
func (in *Integration) GetUTXOs(args canister.GetUTXOsArgs, replicated bool) (*canister.GetUTXOsResult, ic.Result, error) {
	res, err := in.call(BitcoinCanisterID, "get_utxos", args, replicated)
	if err != nil {
		return nil, res, err
	}
	out, ok := res.Value.(*canister.GetUTXOsResult)
	if !ok {
		return nil, res, fmt.Errorf("core: unexpected get_utxos type %T", res.Value)
	}
	return out, res, nil
}

// GetAllUTXOs follows pagination to collect every UTXO of an address, as
// coins.
func (in *Integration) GetAllUTXOs(address string, minConfirmations int64) ([]utxo.Coin, error) {
	var all []utxo.Coin
	var page utxo.PageToken
	for {
		res, _, err := in.GetUTXOs(canister.GetUTXOsArgs{
			Address:          address,
			MinConfirmations: minConfirmations,
			Page:             page,
		}, false)
		if err != nil {
			return nil, err
		}
		all = append(all, res.UTXOs...)
		if res.NextPage == nil {
			return all, nil
		}
		page = res.NextPage
	}
}

// SendTransaction submits a raw transaction through the Bitcoin canister
// (always replicated — it changes state).
func (in *Integration) SendTransaction(rawTx []byte) (ic.Result, error) {
	return in.call(BitcoinCanisterID, "send_transaction", canister.SendTransactionArgs{RawTx: rawTx}, true)
}

// call submits a replicated or query call to a canister and runs the
// scheduler until the response lands.
func (in *Integration) call(id ic.CanisterID, method string, arg any, replicated bool) (ic.Result, error) {
	if !in.started {
		return ic.Result{}, errors.New("core: integration not started")
	}
	var out *ic.Result
	deliver := func(r ic.Result) { out = &r }
	if replicated {
		in.Subnet.SubmitUpdate(id, method, arg, "client", deliver)
	} else {
		in.Subnet.Query(id, method, arg, "client", deliver)
	}
	// Run virtual time forward until the callback fires (bounded).
	deadline := in.Sched.Now().Add(5 * time.Minute)
	for out == nil && in.Sched.Now().Before(deadline) {
		in.RunFor(100 * time.Millisecond)
	}
	if out == nil {
		return ic.Result{}, fmt.Errorf("%w: no response to %s", ErrTimeout, method)
	}
	return *out, out.Err
}

// InstallCanister deploys an application canister next to the Bitcoin
// canister (e.g. a wallet, escrow, or payroll canister).
func (in *Integration) InstallCanister(id ic.CanisterID, c ic.Canister) {
	in.Subnet.InstallCanister(id, c)
}

// CallCanister performs a replicated call against any installed canister.
func (in *Integration) CallCanister(id ic.CanisterID, method string, arg any) (ic.Result, error) {
	return in.call(id, method, arg, true)
}

// AwaitTxInMempool runs until the transaction reaches the mining node's
// mempool (node 0), so a subsequent MineBlocks includes it — the complete
// "write path" of the integration.
func (in *Integration) AwaitTxInMempool(txid btc.Hash, budget time.Duration) error {
	deadline := in.Sched.Now().Add(budget)
	for in.Sched.Now().Before(deadline) {
		if len(in.Bitcoin.Nodes) > 0 && in.Bitcoin.Nodes[0].MempoolHas(txid) {
			return nil
		}
		in.RunFor(500 * time.Millisecond)
	}
	return fmt.Errorf("%w: tx %s not in the mining node's mempool", ErrTimeout, txid)
}
