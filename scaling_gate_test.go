// Multi-core scaling gate: the wall-clock proof that -parallel wins. The
// local differential harnesses prove the sharded engine is byte-identical to
// serial; this test proves it is *faster* — on a real multi-core host the
// 8-node (4x2x2) NPB-IS run under the adaptive sharded engine must beat the
// serial reference by at least 1.5x.
//
// The gate only means something on a multi-core machine, so it is opt-in:
// it runs when SMAPPIC_SCALING_GATE=1 is set (the parallel-scaling CI job
// sets it on a >=4-vCPU runner) and refuses to pass vacuously on small
// hosts. Everything it measures goes through the same benchIS helper as
// BenchmarkParallel_vs_Serial, so the gated number and the recorded
// benchmark number are the same run.
package smappic_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// gateMinSpeedup is the acceptance floor from ISSUE/ROADMAP: 8-node NPB-IS,
// adaptive sharded vs serial, on a >=4-core host.
const gateMinSpeedup = 1.5

// gateRuns is how many times each mode is measured; the best (minimum)
// wall-clock per mode is used, which is the standard way to cut scheduler
// noise on shared CI runners.
const gateRuns = 3

// gateMeasure times one mode of an NPB-IS fixture, best of gateRuns.
func gateMeasure(t *testing.T, fpgas, nodes, tiles, parallel, adaptive int) (best time.Duration, cycles int64) {
	t.Helper()
	for r := 0; r < gateRuns; r++ {
		start := time.Now()
		c := benchIS(t, fpgas, nodes, tiles, parallel, adaptive)
		d := time.Since(start)
		if r == 0 || d < best {
			best = d
		}
		cycles = int64(c)
	}
	return best, cycles
}

// TestParallelScalingGate fails the build if the adaptive sharded engine
// does not deliver >=1.5x over serial on the 8-node NPB-IS configuration.
// It logs a BENCH_PARALLEL.json-shaped fragment so CI logs double as the
// trajectory record.
func TestParallelScalingGate(t *testing.T) {
	if os.Getenv("SMAPPIC_SCALING_GATE") != "1" {
		t.Skip("set SMAPPIC_SCALING_GATE=1 to run the multi-core scaling gate")
	}
	if ncpu := runtime.NumCPU(); ncpu < 4 {
		t.Fatalf("scaling gate requires >=4 CPUs, host has %d; "+
			"run it on a multi-core host (the parallel-scaling CI job does)", ncpu)
	}

	serial, serialCycles := gateMeasure(t, 4, 2, 2, 0, 0)
	adaptive, parCycles := gateMeasure(t, 4, 2, 2, 4, 0)
	fixed, _ := gateMeasure(t, 4, 2, 2, 4, 1)

	if parCycles != serialCycles {
		t.Fatalf("sharded run simulated %d cycles, serial %d: the modes are not comparable",
			parCycles, serialCycles)
	}

	speedup := serial.Seconds() / adaptive.Seconds()
	fixedSpeedup := serial.Seconds() / fixed.Seconds()

	// BENCH_PARALLEL.json trajectory fragment (scripts/bench.sh emits the
	// same shape from the benchmark output).
	t.Logf("BENCH_PARALLEL fragment: %s", fmt.Sprintf(
		`{"fixture": "npb-is-8node", "gomaxprocs": %d, "serial_ms": %.1f, "parallel_ms": %.1f, "parallel_fixed_ms": %.1f, "speedup": %.2f, "fixed_speedup": %.2f, "sim_cycles": %d}`,
		runtime.GOMAXPROCS(0), float64(serial.Microseconds())/1000,
		float64(adaptive.Microseconds())/1000, float64(fixed.Microseconds())/1000,
		speedup, fixedSpeedup, serialCycles))

	if speedup < gateMinSpeedup {
		t.Errorf("8-node NPB-IS adaptive sharded speedup %.2fx < %.1fx gate "+
			"(serial %v, parallel %v on %d CPUs)",
			speedup, gateMinSpeedup, serial, adaptive, runtime.NumCPU())
	}
}
