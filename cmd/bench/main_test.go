package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/figures.golden from the current code. Run
//
//	go test ./cmd/bench -run TestFiguresGolden -update-golden
//
// only for a change that is meant to move a figure, and say in the PR which
// rows moved and why: metered instructions are consensus-visible.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/figures.golden")

// TestFiguresGolden is the exact-equality gate on the paper's evaluation:
// every figure is metered instructions or rounds counted on the virtual
// clock, so at the default seed the output is the same bytes on every run,
// at any GOMAXPROCS. A diff here means a change moved a number the
// paper reports — intended or not, it has to be looked at.
func TestFiguresGolden(t *testing.T) {
	var out bytes.Buffer
	for _, f := range figures {
		// ~12 s of chaos runs; experiments.TestDegradeRecovery pins two of
		// its rates instead.
		if f.name == "degrade" {
			continue
		}
		var stderr bytes.Buffer
		if code := cli([]string{"-fig", f.name}, &out, &stderr); code != 0 {
			t.Fatalf("-fig %s: exit %d: %s", f.name, code, stderr.String())
		}
	}
	path := filepath.Join("testdata", "figures.golden")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, out.Len())
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-golden): %v", err)
	}
	if bytes.Equal(golden, out.Bytes()) {
		return
	}
	want, got := strings.Split(string(golden), "\n"), strings.Split(out.String(), "\n")
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("figures moved; first difference at %s:%d\n want: %s\n  got: %s\n"+
				"if the change is intentional, regenerate with -update-golden and report the rows that moved",
				path, i+1, w, g)
		}
	}
}

// TestUnknownFigureIsAnError: a mistyped -fig used to print nothing and exit
// 0, which reads as "that figure is empty". "5" is the deleted Figure 5,
// whose rows were a closed form of the generator, not a measurement;
// "latency" is the deleted §IV-B latency table, whose rows were the
// subnet's latency envelope read back.
func TestUnknownFigureIsAnError(t *testing.T) {
	for _, name := range []string{"nosuch", "5", "latency"} {
		var stdout, stderr bytes.Buffer
		if code := cli([]string{"-fig", name}, &stdout, &stderr); code != 2 {
			t.Fatalf("-fig %s: exit %d, want 2", name, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-fig %s printed to stdout: %q", name, stdout.String())
		}
		for _, f := range figures {
			if !strings.Contains(stderr.String(), f.name) {
				t.Errorf("-fig %s: error does not name valid figure %q: %s", name, f.name, stderr.String())
			}
		}
	}
}

// TestScaleIsNotAFlag: -scale divided the population of Figure 7 and the
// latency table; with the latency table gone, the one value in use is the
// population's fixed scale, so the flag is gone and naming it is an error.
func TestScaleIsNotAFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := cli([]string{"-fig", "7", "-scale", "1"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-scale 1: exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("-scale 1 printed to stdout: %q", stdout.String())
	}
}
