package main

import (
	"fmt"
	"io"
	"time"

	"icbtc/internal/btc"
	"icbtc/internal/core"
	"icbtc/internal/ic"
)

// payrollFee is the flat fee, in satoshi, of one pay run.
const payrollFee = 1000

// PayrollCanister is a timer-driven decentralized payroll — the second
// application class the paper's introduction motivates. Funded in bitcoin
// at the subnet's threshold address, it pays every employee in one
// transaction each period, using canister timers ("canisters can schedule
// the execution of (parts of) their own code using timers, in contrast to
// most other smart contract platforms", §II-A) and threshold-ECDSA
// signatures.
type PayrollCanister struct {
	BitcoinID ic.CanisterID
	Network   btc.Network
	// Employees are paid Amount satoshi each per period.
	Employees []core.Payment
	// Period is the pay interval in consensus timer ticks (blocks).
	Period int

	ticks    int
	payRuns  int
	lastTxID btc.Hash
	payError string
}

// Update implements ic.Canister.
func (p *PayrollCanister) Update(ctx *ic.CallContext, method string, arg any) (any, error) {
	switch method {
	case "treasury_address":
		addr, err := core.ThresholdAddress(ctx, p.Network)
		return addr.String(), err
	case "pay_runs":
		return p.payRuns, nil
	case "last_tx":
		return p.lastTxID, nil
	case "last_error":
		return p.payError, nil
	default:
		return nil, fmt.Errorf("payroll: no method %q", method)
	}
}

// Query implements ic.Canister.
func (p *PayrollCanister) Query(ctx *ic.CallContext, method string, arg any) (any, error) {
	return p.Update(ctx, method, arg)
}

// OnTimer fires once per finalized block; every Period ticks it pays every
// employee in one threshold-signed transaction.
func (p *PayrollCanister) OnTimer(ctx *ic.CallContext) {
	p.ticks++
	if p.Period <= 0 || p.ticks%p.Period != 0 {
		return
	}
	sent, err := core.ThresholdSpend(ctx, p.BitcoinID, p.Network, p.Employees, payrollFee)
	if err != nil {
		// Record and carry on; the next period retries.
		p.payError = err.Error()
		return
	}
	p.payRuns++
	p.lastTxID = sent.TxID
	p.payError = ""
}

var (
	_ ic.Canister     = (*PayrollCanister)(nil)
	_ ic.TimerHandler = (*PayrollCanister)(nil)
)

// payroll funds a three-employee payroll and lets its timer run one period.
func payroll(w io.Writer) error {
	fmt.Fprintln(w, "== Setting up the payroll ==")
	integ, err := core.New(core.Options{Seed: 9})
	if err != nil {
		return err
	}
	staff := []struct {
		name   string
		key    [20]byte
		salary int64 // satoshi per pay period
	}{
		{"alice", [20]byte{0xA1, 0x1C}, 2_000_000},
		{"bob", [20]byte{0xB0, 0xB0}, 1_500_000},
		{"carol", [20]byte{0xCA, 0x01}, 1_000_000},
	}
	var employees []core.Payment
	for _, s := range staff {
		addr := btc.NewP2PKHAddress(s.key, integ.Params.Network)
		employees = append(employees, core.Payment{To: addr.String(), Amount: s.salary})
	}
	integ.InstallCanister("payroll", &PayrollCanister{
		BitcoinID: core.BitcoinCanisterID,
		Network:   integ.Params.Network,
		Employees: employees,
		Period:    30, // every 30 finalized blocks (~30 s simulated)
	})
	integ.Start()
	integ.RunFor(5 * time.Second)

	if _, err := integ.MineBlocks(2); err != nil {
		return err
	}
	res, err := integ.CallCanister("payroll", "treasury_address", nil)
	if err != nil {
		return err
	}
	treasury := res.Value.(string)
	fmt.Fprintf(w, "   treasury (threshold key): %s\n", treasury)

	fmt.Fprintln(w, "== Funding the treasury with 0.5 BTC ==")
	if _, err := core.FundAddress(integ, treasury, 50_000_000); err != nil {
		return err
	}
	if err := integ.AwaitCanisterHeight(3, 3*time.Minute); err != nil {
		return err
	}

	fmt.Fprintln(w, "== Letting the timer run one pay period ==")
	deadline := integ.Now().Add(5 * time.Minute)
	for integ.Now().Before(deadline) {
		integ.RunFor(10 * time.Second)
		res, err = integ.CallCanister("payroll", "pay_runs", nil)
		if err != nil {
			return err
		}
		if res.Value.(int) >= 1 {
			break
		}
	}
	if res.Value.(int) < 1 {
		errRes, _ := integ.CallCanister("payroll", "last_error", nil)
		return fmt.Errorf("no pay run executed (last error: %v)", errRes.Value)
	}
	res, err = integ.CallCanister("payroll", "last_tx", nil)
	if err != nil {
		return err
	}
	payTx := res.Value.(btc.Hash)
	fmt.Fprintf(w, "   pay run executed: %s\n", payTx)

	if err := integ.AwaitTxInMempool(payTx, 2*time.Minute); err != nil {
		return err
	}
	if _, err := integ.MineBlocks(1); err != nil {
		return err
	}
	if err := integ.AwaitCanisterHeight(4, 2*time.Minute); err != nil {
		return err
	}
	for i, s := range staff {
		bal, _, err := integ.GetBalance(employees[i].To, 0, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "   %s received %d sat (salary %d)\n", s.name, bal, s.salary)
		if bal != s.salary {
			return fmt.Errorf("%s paid %d, want %d", s.name, bal, s.salary)
		}
	}
	fmt.Fprintln(w, "payroll complete")
	return nil
}
