// Command examples runs the repository's Bitcoin smart contracts end to end
// on the full simulated stack (Bitcoin network, adapters, IC subnet, Bitcoin
// canister). Each contract is written against internal/core's contract kit
// (ThresholdAddress, ThresholdSpend) and runs on the virtual clock from a
// fixed seed, so it prints the same bytes on every run
// (testdata/contracts.golden).
//
// Usage:
//
//	go run ./examples               # every contract below, in this order
//	go run ./examples -run <name>   # one of them; an unknown name lists the valid ones
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// contracts is the table the flag help, the "all" loop, the unknown-name
// error and the golden test iterate.
var contracts = []struct {
	name string
	run  func(io.Writer) error
}{
	{"quickstart", quickstart},
	{"escrow", escrow},
	{"payroll", payroll},
}

func contractNames() string {
	names := make([]string, len(contracts))
	for i, c := range contracts {
		names[i] = c.name
	}
	return strings.Join(names, ", ")
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is main without the process: it returns the exit status — 0, 1 when a
// contract fails, 2 for a bad flag or an unknown -run value.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("examples", flag.ContinueOnError)
	fs.SetOutput(stderr)
	run := fs.String("run", "all", "contract to run: "+contractNames()+", or all")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ran := false
	for _, c := range contracts {
		if *run != "all" && *run != c.name {
			continue
		}
		ran = true
		fmt.Fprintf(stdout, "\n===== %s =====\n", c.name)
		if err := c.run(stdout); err != nil {
			fmt.Fprintf(stderr, "examples: -run %s: %v\n", c.name, err)
			return 1
		}
	}
	if !ran {
		fmt.Fprintf(stderr, "examples: unknown -run %q (valid: %s, all)\n", *run, contractNames())
		return 2
	}
	return 0
}
