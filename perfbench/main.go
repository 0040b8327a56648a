// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator's layers through their public functions only — core.Build,
// kernel.New, workload.RunIS, Prototype.Run (via kernel.SetRunner),
// Prototype.MetricsJSON, Group.SyncSnapshot, Engine.Executed and the
// fleetsrv server, worker and client — times those calls from its own
// files, checks every output, and prints one JSON result line:
//
//	perfbench --workload serial-numa48 --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a traced run
// that prints the per-layer metrics and writes its spans under -out.
// BASELINE.md explains the workloads and which layer metric should move
// which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// options size one benchmark run. The command line sets the first five;
// the rest are the measured sizes, which the self-test shrinks.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string

	minOps    int // simulations or campaigns a run holds at least
	keys      int // IS keys per simulation (serial-numa48, sharded-2x2x12)
	fleetKeys int // IS keys per campaign point (fleet-sweep)
	setupReps int // timed batches of set-ups per run; the median is setup_s
	// corrupt flips a byte of every reference before it is compared, so a
	// test can prove the comparisons count failures.
	corrupt bool
}

// maxRun is the wall time after which a run admits no new operation, even
// short of minOps, so that a run on a stalled host still ends in time.
const maxRun = 120 * time.Second

func defaultOptions() options {
	return options{minOps: 100, keys: 2048, fleetKeys: 1024, setupReps: 50}
}

// measurement is what one workload run hands back: counts of attempted and
// failed operations, the end-to-end and per-layer metric values by name,
// and free-form facts about the run for the info line.
type measurement struct {
	attempted, failed int
	e2e, layer        map[string]float64
	info              map[string]any
}

func newMeasurement() *measurement {
	return &measurement{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}}
}

var workloads = map[string]func(options) (*measurement, error){
	"serial-numa48":  runSerialNUMA48,
	"sharded-2x2x12": runSharded2x2x12,
	"fleet-sweep":    runFleetSweep,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one workload and renders its result: the end-to-end metrics
// untraced, the per-layer metrics traced. A per-layer metric a workload does
// not exercise reads 0.
func run(o options) (*result, *measurement, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	m, err := fn(o)
	if err != nil {
		return nil, nil, err
	}
	if m.attempted > 0 {
		m.layer["failed_frac"] = float64(m.failed) / float64(m.attempted)
	}
	res := &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	if o.trace {
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{m.layer[d.name], d.unit}
		}
		return res, m, nil
	}
	for _, d := range endToEnd {
		v, ok := m.e2e[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("workload %s did not measure %s", o.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	return res, m, nil
}

func main() {
	o := defaultOptions()
	flag.StringVar(&o.workload, "workload", "", "serial-numa48, sharded-2x2x12 or fleet-sweep")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; every IS and campaign seed derives from it")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the timed region in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for fleet state and span files")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	if o.seconds < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must not be negative")
		os.Exit(2)
	}
	res, m, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	info := hostInfo(o)
	for k, v := range m.info {
		info[k] = v
	}
	if err := printResult(os.Stdout, info, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// printResult writes the info line, then the result as the last line.
func printResult(w io.Writer, info map[string]any, res *result) error {
	line, err := json.Marshal(map[string]any{"info": info})
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, out)
	return err
}

// hostInfo names the host and toolchain every result was measured on.
func hostInfo(o options) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		"caches":     "cold: every simulation builds a fresh prototype, so modelled caches start empty",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
