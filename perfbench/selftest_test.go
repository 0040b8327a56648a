package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"smappic/internal/campaign"
)

// tiny shrinks a run to a few small operations.
func tiny(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: 3, trace: trace, outDir: t.TempDir(),
		minOps: 2, keys: 96, fleetKeys: 64, setupReps: 1,
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (e2e, layer map[string]string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestEveryWorkloadPrintsEveryMetric runs each workload at a tiny size,
// untraced and traced, and checks the printed result: every metric
// BENCHMARK.json names is there with its unit, nothing else is, and no
// operation failed.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	e2e, layer := benchmarkMetrics(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res, _, err := run(tiny(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var buf bytes.Buffer
			if err := printResult(&buf, hostInfo(tiny(t, name, trace)), res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var got result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s: last line is not the result: %v", name, err)
			}
			want := e2e
			if trace {
				want = layer
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(got.Metrics), len(want))
			}
			for m, unit := range want {
				v, ok := got.Metrics[m]
				if !ok || v.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, m, v, unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
				}
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, got.Correct, got.Attempted, got.Failed)
			}
			if trace && got.Metrics["trace.counters_identical"].Value != 1 {
				t.Errorf("%s: simulated counters differ with tracing on and off", name)
			}
		}
	}
}

// TestCorruptedComparisonCounts damages every reference before it is
// compared: failed_frac must rise above zero on every workload.
func TestCorruptedComparisonCounts(t *testing.T) {
	for name := range workloads {
		o := tiny(t, name, true)
		o.corrupt = true
		res, _, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 || res.Metrics["failed_frac"].Value <= 0 {
			t.Errorf("%s: corrupted comparison not counted: correct=%v failed=%d failed_frac=%v",
				name, res.Correct, res.Failed, res.Metrics["failed_frac"].Value)
		}
	}
}

// TestUnsortedPointFails checks the fleet report check on a real report:
// every point passes, and a point whose output is not sorted fails.
func TestUnsortedPointFails(t *testing.T) {
	spec := campaign.Spec{Name: "selftest", Shapes: fleetShapes, Workloads: []string{campaign.WorkloadIS}, Seeds: []uint64{7}, Keys: 64}
	report := referenceReport(spec)
	points := len(spec.Shapes)
	if complete, failed, err := reportFailures(report, points); err != nil || complete != points || failed != 0 {
		t.Fatalf("clean report: complete=%d failed=%d err=%v", complete, failed, err)
	}
	unsorted := bytes.Replace(report, []byte(`"sorted": true,`), nil, 1)
	if bytes.Equal(unsorted, report) {
		t.Fatal("report has no sorted field to clear")
	}
	if _, failed, err := reportFailures(unsorted, points); err != nil || failed != 1 {
		t.Errorf("one unsorted point: failed=%d err=%v, want 1", failed, err)
	}
}
