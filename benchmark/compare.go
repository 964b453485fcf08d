package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// Record is one run in a result set: the line a run printed, tagged with
// what was run. A result set is a file of them, one JSON object per line
// (what -sweep prints).
type Record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   Result `json:"result"`
}

// sweepAll runs every workload n times, each time with another seed and in a
// process of its own (as the driver does), and prints one Record per run.
// Workloads alternate so that drift of the machine spreads over all of them.
func sweepAll(n int, seed int64, secs float64, trace int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	status := 0
	enc := json.NewEncoder(stdout)
	for i := 0; i < n; i++ {
		for _, d := range workloadDefs {
			rec := Record{Workload: d.Name, Seed: seed + int64(i), Trace: trace}
			cmd := exec.Command(self, "--workload", d.Name, "--seed", strconv.FormatInt(rec.Seed, 10),
				"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", strconv.Itoa(trace))
			cmd.Stderr = stderr
			outBytes, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", d.Name, rec.Seed, err)
				status = 1
				continue
			}
			lines := bytes.Split(bytes.TrimSpace(outBytes), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &rec.Result); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: last line is no result: %v\n", d.Name, rec.Seed, err)
				status = 1
				continue
			}
			if !rec.Result.Correct {
				status = 1
			}
			if err := enc.Encode(rec); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
	}
	return status
}

// Declaration is BENCHMARK.json as the driver reads it.
type Declaration struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []WorkloadDef `json:"workloads"`
	EndToEnd   []struct {
		MetricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			set[rec.Workload][name] = append(set[rec.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) gives them (the driver's rule).
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		} else if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / abs(q2)
}

// worsening is how much worse b is than a as a share of a (negative when b
// is better).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / abs(a)
	}
	return (b - a) / abs(a)
}

// compareSets prints, per workload and metric, both sets' medians, their
// spreads, how much worse B is than A and the bound from the spec. It fails
// when an end-to-end metric got worse by more than its bound, or when a
// spread (setup_s aside, as the driver rules) is wider than the bound. Set
// A is the parent (or the first acceptance set), B the change (or the
// second).
func compareSets(pathA, pathB, specPath string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return fail(err)
	}
	var spec Declaration
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fail(fmt.Errorf("%s: %w", specPath, err))
	}
	a, err := readSet(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readSet(pathB)
	if err != nil {
		return fail(err)
	}
	status := 0
	row := func(workload string, d MetricDef, bound float64, gated bool) {
		va, vb := a[workload][d.Name], b[workload][d.Name]
		if len(va) == 0 || len(vb) == 0 {
			return
		}
		_, ma, _ := quartiles(va)
		_, mb, _ := quartiles(vb)
		worse, sa, sb := worsening(ma, mb, d.Better), spread(va), spread(vb)
		verdict := "ok"
		switch {
		case !gated:
			verdict = "-"
		case worse > bound:
			verdict, status = "WORSE", 1
		case d.Name != "setup_s" && (sa > bound || sb > bound):
			verdict, status = "NOISY", 1
		}
		fmt.Fprintf(stdout, "%-12s %-40s %-8s %14.6g %14.6g %+8.2f%% %7.2f%% %7.2f%% %7.2f%%  %s\n",
			workload, d.Name, d.Unit, ma, mb, 100*worse, 100*sa, 100*sb, 100*bound, verdict)
	}
	fmt.Fprintf(stdout, "%-12s %-40s %-8s %14s %14s %9s %8s %8s %8s  %s\n",
		"workload", "metric", "unit", "median A", "median B", "B worse", "spread A", "spread B", "bound", "verdict")
	for _, w := range workloadDefs {
		for _, d := range spec.EndToEnd {
			row(w.Name, d.MetricDef, d.Bound, true)
		}
		for _, d := range spec.PerLayer {
			row(w.Name, d, 0, false)
		}
	}
	return status
}
