package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// quartiles must be the driver's rule: Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func writeSet(t *testing.T, path string, throughput, latency []float64) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range throughput {
		rec := Record{Workload: wlQueryHot, Seed: int64(i), Result: Result{Correct: true, Attempted: 1, Metrics: map[string]Metric{
			"throughput_per_s": {Value: throughput[i], Unit: "1/s"},
			"latency_p50_us":   {Value: latency[i], Unit: "us"},
		}}}
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.05},
		{"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.05}], "per_layer": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a, same, slower, noisy := filepath.Join(dir, "a"), filepath.Join(dir, "same"), filepath.Join(dir, "slower"), filepath.Join(dir, "noisy")
	writeSet(t, a, []float64{100, 101, 99, 100, 102}, []float64{10, 10.1, 9.9, 10, 10.2})
	writeSet(t, same, []float64{99, 100, 101, 98, 100}, []float64{10.2, 10.1, 10, 10, 10.3})
	writeSet(t, slower, []float64{90, 91, 89, 90, 92}, []float64{10, 10.1, 9.9, 10, 10.2})
	writeSet(t, noisy, []float64{100, 120, 80, 100, 110}, []float64{10, 10.1, 9.9, 10, 10.2})
	for _, c := range []struct {
		b    string
		want int
	}{{same, 0}, {slower, 1}, {noisy, 1}} {
		var out, errs bytes.Buffer
		if got := compareSets(a, c.b, spec, &out, &errs); got != c.want {
			t.Errorf("compare with %s: exit %d, want %d\n%s%s", filepath.Base(c.b), got, c.want, out.String(), errs.String())
		}
	}
	// Throughput is better when higher: a faster B is no regression.
	var out, errs bytes.Buffer
	if got := compareSets(slower, a, spec, &out, &errs); got != 0 {
		t.Errorf("faster B counted as a regression:\n%s", out.String())
	}
}
