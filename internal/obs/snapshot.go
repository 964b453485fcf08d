package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Snapshot is a point-in-time copy of a registry's metrics, in sorted name
// (and label) order. Equal metric values always produce equal snapshots,
// and WriteProm renders equal snapshots as identical text — the property
// chaos's same-seed comparison of MetricsText rests on.
type Snapshot struct {
	Counters   []CounterPoint
	Gauges     []GaugePoint
	Histograms []HistogramPoint
	Families   []FamilyPoint
}

// CounterPoint is one counter's snapshot.
type CounterPoint struct {
	Name  string
	Value uint64
}

// GaugePoint is one gauge's snapshot.
type GaugePoint struct {
	Name  string
	Value int64
}

// HistogramPoint is one histogram's snapshot: the boundaries, the per-bucket
// counts (underflow first, overflow last — see Histogram), their total
// Count, and the sum.
type HistogramPoint struct {
	Name   string
	Bounds []int64
	Counts []uint64
	Count  uint64
	Sum    int64
}

// FamilyPoint is one labeled counter family's snapshot, children in sorted
// label order.
type FamilyPoint struct {
	Name   string
	Label  string
	Values []LabelValue
}

// LabelValue is one family child.
type LabelValue struct {
	Value string
	Count uint64
}

// Snapshot copies the registry's current metric values. Counters written
// concurrently with the snapshot land in it or in the next one; each
// histogram is read whole under its own lock. Consumers needing a
// group-consistent view across metrics coordinate externally (queryfleet's
// Stats lock does).
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := append([]*Counter(nil), r.counters...)
	gauges := append([]*Gauge(nil), r.gauges...)
	hists := append([]*Histogram(nil), r.hists...)
	families := append([]*Family(nil), r.families...)
	r.mu.Unlock()

	for _, c := range counters {
		s.Counters = append(s.Counters, CounterPoint{Name: c.name, Value: c.Value()})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugePoint{Name: g.name, Value: g.Value()})
	}
	for _, h := range hists {
		s.Histograms = append(s.Histograms, h.point())
	}
	for _, f := range families {
		p := FamilyPoint{Name: f.name, Label: f.label}
		f.Do(func(value string, c *Counter) {
			p.Values = append(p.Values, LabelValue{Value: value, Count: c.Value()})
		})
		s.Families = append(s.Families, p)
	}
	s.sortByName()
	return s
}

// sortByName orders every section by metric name (family children are
// already label-sorted by Family.Do / Merge).
func (s *Snapshot) sortByName() {
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	sort.Slice(s.Families, func(i, j int) bool { return s.Families[i].Name < s.Families[j].Name })
}

// Quantile estimates the q = num/den quantile from the bucket counts with
// the nearest-rank rule (target index Count*num/den, matching the exact
// order-statistic formula in SummarizeDurations). The estimate is the
// containing bucket's boundary: the exclusive upper boundary for interior
// and underflow buckets, the top boundary for the overflow bucket — a
// deterministic, conservative-by-one-bucket figure.
func (p *HistogramPoint) Quantile(num, den int) int64 {
	if p == nil || p.Count == 0 || den <= 0 {
		return 0
	}
	target := p.Count * uint64(num) / uint64(den)
	var cum uint64
	for i, c := range p.Counts {
		cum += c
		if cum > target {
			if i >= len(p.Bounds) {
				return p.Bounds[len(p.Bounds)-1]
			}
			return p.Bounds[i]
		}
	}
	return p.Bounds[len(p.Bounds)-1]
}

// Merge combines snapshots (typically one per subsystem registry) into one:
// counters, histogram buckets, and family children with equal names sum;
// gauges sum as well (subsystems prefix their names, so same-name gauges
// only meet when they mean the same quantity). Merging is commutative —
// any permutation of the inputs encodes to identical bytes. Histograms
// sharing a name must share boundaries.
func Merge(snaps ...*Snapshot) (*Snapshot, error) {
	counters := map[string]uint64{}
	gauges := map[string]int64{}
	hists := map[string]*HistogramPoint{}
	families := map[string]*FamilyPoint{}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for _, c := range s.Counters {
			counters[c.Name] += c.Value
		}
		for _, g := range s.Gauges {
			gauges[g.Name] += g.Value
		}
		for _, h := range s.Histograms {
			prev, ok := hists[h.Name]
			if !ok {
				cp := h
				cp.Bounds = append([]int64(nil), h.Bounds...)
				cp.Counts = append([]uint64(nil), h.Counts...)
				hists[h.Name] = &cp
				continue
			}
			if len(prev.Bounds) != len(h.Bounds) {
				return nil, fmt.Errorf("obs: merge: histogram %s boundary mismatch", h.Name)
			}
			for i := range prev.Bounds {
				if prev.Bounds[i] != h.Bounds[i] {
					return nil, fmt.Errorf("obs: merge: histogram %s boundary mismatch", h.Name)
				}
			}
			for i := range prev.Counts {
				prev.Counts[i] += h.Counts[i]
			}
			prev.Count += h.Count
			prev.Sum += h.Sum
		}
		for _, f := range s.Families {
			prev, ok := families[f.Name]
			if !ok {
				cp := FamilyPoint{Name: f.Name, Label: f.Label}
				cp.Values = append(cp.Values, f.Values...)
				families[f.Name] = &cp
				continue
			}
			for _, v := range f.Values {
				found := false
				for i := range prev.Values {
					if prev.Values[i].Value == v.Value {
						prev.Values[i].Count += v.Count
						found = true
						break
					}
				}
				if !found {
					prev.Values = append(prev.Values, v)
				}
			}
		}
	}
	out := &Snapshot{}
	for name, v := range counters {
		out.Counters = append(out.Counters, CounterPoint{Name: name, Value: v})
	}
	for name, v := range gauges {
		out.Gauges = append(out.Gauges, GaugePoint{Name: name, Value: v})
	}
	for _, h := range hists {
		out.Histograms = append(out.Histograms, *h)
	}
	for _, f := range families {
		sort.Slice(f.Values, func(i, j int) bool { return f.Values[i].Value < f.Values[j].Value })
		out.Families = append(out.Families, *f)
	}
	out.sortByName()
	return out, nil
}

// WriteProm renders the snapshot as Prometheus text exposition (counters,
// gauges, and cumulative histogram buckets with le labels), in snapshot
// order — sorted, so the output is deterministic too.
func (s *Snapshot) WriteProm(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.Name, c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, f := range s.Families {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", f.Name); err != nil {
			return err
		}
		for _, v := range f.Values {
			if _, err := fmt.Fprintf(w, "%s{%s=%q} %d\n", f.Name, f.Label, v.Value, v.Count); err != nil {
				return err
			}
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", g.Name, g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", h.Name); err != nil {
			return err
		}
		var cum uint64
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = strconv.FormatInt(h.Bounds[i], 10)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.Name, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", h.Name, h.Sum, h.Name, h.Count); err != nil {
			return err
		}
	}
	return nil
}
