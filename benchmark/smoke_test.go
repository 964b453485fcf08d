package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func readDeclared(t *testing.T) Declaration {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var d Declaration
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// BENCHMARK.json and the tables in metrics.go must say the same thing, and
// both must keep the contract's limits.
func TestDeclarationMatchesTables(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, metrics.go %d", len(d.Workloads), len(workloadDefs))
	}
	for i, w := range d.Workloads {
		if w != workloadDefs[i] {
			t.Errorf("workload %d: BENCHMARK.json %+v, metrics.go %+v", i, w, workloadDefs[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w.Name, len(w.Why))
		}
	}
	if len(d.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, metrics.go %d", len(d.EndToEnd), len(endToEndDefs))
	}
	for i, m := range d.EndToEnd {
		if m.MetricDef != endToEndDefs[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, metrics.go %+v", i, m.MetricDef, endToEndDefs[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound must be in (0, 0.25]", m.Name)
		}
	}
	if len(d.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, metrics.go %d", len(d.PerLayer), len(perLayerDefs))
	}
	seen := map[string]bool{}
	for i, m := range d.PerLayer {
		if m != perLayerDefs[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, metrics.go %+v", i, m, perLayerDefs[i])
		}
	}
	for _, m := range append(append([]MetricDef{}, endToEndDefs...), perLayerDefs...) {
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
		if len(m.Name) > 64 || len(m.Unit) == 0 || len(m.Unit) > 16 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v breaks the contract's limits", m)
		}
	}
	if len(d.PerLayer) > 128 || len(d.EndToEnd) > 16 || d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("BENCHMARK.json is outside the contract's limits")
	}
}

func names(defs []MetricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// Every workload, at tiny counts, untraced and traced: the answers are
// correct and the emitted metric names are exactly the declared sets, each
// with its unit — the names later issues cite cannot drift.
func TestSmokeAllWorkloads(t *testing.T) {
	d := readDeclared(t)
	units := map[string]string{}
	var e2e, layer []MetricDef
	for _, m := range d.EndToEnd {
		e2e = append(e2e, m.MetricDef)
		units[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		layer = append(layer, m)
		units[m.Name] = m.Unit
	}
	out := t.TempDir()
	for _, w := range d.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w.Name, 11, 0.2, traced, tinyScale, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := names(e2e)
			if traced {
				want = names(layer)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if m.Unit != units[name] {
					t.Errorf("%s: metric %s has unit %q, declared %q", w.Name, name, m.Unit, units[name])
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
				}
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s traced=%v emits\n%v\ndeclared\n%v", w.Name, traced, got, want)
			}
			if traced {
				spans, err := os.ReadFile(filepath.Join(out, "spans-"+w.Name+"-seed11.jsonl"))
				if err != nil || len(spans) == 0 {
					t.Errorf("%s: no span file (%v)", w.Name, err)
				}
			}
		}
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errs); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-list"}, &out, &errs); code != 0 || !strings.Contains(out.String(), "tip_mixed") {
		t.Fatalf("-list: exit %d, stdout %q", code, out.String())
	}
}
