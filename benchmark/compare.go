package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json -compare and the smoke test
// read.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec finds BENCHMARK.json from the checkout's root or from benchmark/.
func loadSpec() (*benchmarkSpec, error) {
	var raw []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if raw, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	spec := &benchmarkSpec{}
	if err := json.Unmarshal(raw, spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// readRecords returns the untraced runs of a -record file, in file order.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Traced && rec.Result != nil {
			out = append(out, rec)
		}
	}
	return out, sc.Err()
}

// valuesOf lists one metric's value in every run of one workload.
func valuesOf(recs []record, workload, name string) []float64 {
	var out []float64
	for _, rec := range recs {
		if m, ok := rec.Result.Metrics[name]; ok && rec.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of vs the
// way Python's statistics.quantiles(vs, n=4) does (exclusive method), which
// is what the driver computes spreads with.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	vs = slices.Clone(vs)
	slices.Sort(vs)
	if len(vs) == 1 {
		return vs[0], vs[0], vs[0]
	}
	at := func(i int) float64 {
		m := len(vs) + 1
		j := min(max(i*m/4, 1), len(vs)-1)
		delta := i*m - j*4
		return (vs[j-1]*float64(4-delta) + vs[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// compareMain prints one row per (workload, end-to-end metric) with both
// sides' medians and quartiles, the change, the metric's bound and a verdict:
// "worse" when b's median is worse than a's by more than the bound,
// "unresolved" when either side's quartile spread is wider than the bound
// (unless every run of b beats every run of a), else "ok". It returns the
// process exit code: 1 when any row is worse, 2 on bad input.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.jsonl b.jsonl")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	a, err := readRecords(args[0])
	if err == nil {
		var b []record
		if b, err = readRecords(args[1]); err == nil {
			table, code := compareSets(spec, a, b)
			if _, err = io.WriteString(w, table); err == nil {
				return code
			}
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// compareSets renders the comparison table and the exit code it implies.
func compareSets(spec *benchmarkSpec, a, b []record) (string, int) {
	code := 0
	var w strings.Builder
	fmt.Fprintf(&w, "%-17s %-19s %3s %12s %12s %12s %7s | %3s %12s %12s %12s %7s | %8s %6s  %s\n",
		"workload", "metric", "n", "a.q1", "a.median", "a.q3", "spread", "n", "b.q1", "b.median", "b.q3", "spread", "worse by", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			av, bv := valuesOf(a, wl.Name, m.Name), valuesOf(b, wl.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(&w, "%-17s %-19s missing on one side\n", wl.Name, m.Name)
				code = max(code, 2)
				continue
			}
			aq1, amed, aq3 := quartiles(av)
			bq1, bmed, bq3 := quartiles(bv)
			// worse is how far b's median moved in the bad direction, as a
			// share of a's median.
			worse := (bmed - amed) / amed
			allBetter := slices.Min(av) > slices.Max(bv)
			if m.Better == "higher" {
				worse = -worse
				allBetter = slices.Max(av) < slices.Min(bv)
			}
			aspread, bspread := (aq3-aq1)/amed, (bq3-bq1)/bmed
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "worse"
				code = max(code, 1)
			case max(aspread, bspread) > m.Bound && !allBetter:
				verdict = "unresolved"
			}
			fmt.Fprintf(&w, "%-17s %-19s %3d %12.5g %12.5g %12.5g %6.1f%% | %3d %12.5g %12.5g %12.5g %6.1f%% | %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, len(av), aq1, amed, aq3, 100*aspread, len(bv), bq1, bmed, bq3, 100*bspread, 100*worse, 100*m.Bound, verdict)
		}
	}
	return w.String(), code
}
