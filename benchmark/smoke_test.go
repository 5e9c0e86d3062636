package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a run
// re-executes itself as a set-up child.
func TestMain(m *testing.M) {
	maybeSetupChild()
	os.Exit(m.Run())
}

// TestSmoke runs every workload at the tiny scale — untraced all four, traced
// one Songs and the Products workload, since the layer probes are the same
// code on each — and checks the contract the driver relies on: the result
// object lists exactly the metrics BENCHMARK.json names, with its units, every
// operation was attempted and none failed. It asserts no wall-clock value.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(tinyScale) || len(spec.Workloads) != len(fullScale) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d (tiny) and %d (full)", len(spec.Workloads), len(tinyScale), len(fullScale))
	}
	for i, wl := range spec.Workloads {
		modes := []bool{false}
		if i < 2 {
			modes = append(modes, true)
		}
		for _, traced := range modes {
			want := spec.EndToEnd
			name := wl.Name + "/end_to_end"
			if traced {
				want = spec.PerLayer
				name = wl.Name + "/per_layer"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				res, err := runWorkload(options{workload: wl.Name, seed: 1, seconds: 1, trace: traced, scale: "tiny"}, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted <= 0 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				// The last line of the output is the result object, alone.
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var last map[string]json.RawMessage
				if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
					t.Fatalf("last line is not a JSON object: %v", err)
				}
				if len(last) != 4 {
					t.Errorf("result object has %d keys, want correct, attempted, failed, metrics", len(last))
				}
			})
		}
	}
}
