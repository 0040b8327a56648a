package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"smappic/internal/core"
	"smappic/internal/kernel"
	"smappic/internal/sim"
	"smappic/internal/workload"
)

// simShape is a simulation workload's prototype: AxBxC and engine shards
// (0 = the serial engine).
type simShape struct{ fpgas, nodes, tiles, parallel int }

var (
	// numa48 is the paper's 48-core shape on the serial engine: every
	// inter-node hop crosses PCIe.
	numa48 = simShape{4, 1, 12, 0}
	// sharded48 is 48 cores as two FPGAs of two nodes, one shard per FPGA
	// with the shipping adaptive lookahead.
	sharded48 = simShape{2, 2, 12, 2}
)

func (s simShape) config(parallel int) core.Config {
	cfg := core.DefaultConfig(s.fpgas, s.nodes, s.tiles)
	cfg.Core = core.CoreNone
	cfg.Parallel = parallel
	return cfg
}

// splitmix is the SplitMix64 finalizer: it spreads a workload seed and an
// index into an independent 64-bit seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// isInput is simulation i's IS problem: the fixture's key range over one
// thread per hart, keys generated from a seed derived from the workload
// seed.
func isInput(o options, i, threads int) workload.ISParams {
	ip := workload.DefaultISParams(threads)
	ip.Keys = o.keys
	ip.Seed = splitmix(o.seed<<20^uint64(i)) | 1 // 0 would select the default stream
	return ip
}

// simOut is one simulation's measurements. wall runs from core.Build to the
// verified result, the garbage collections that fall inside it included;
// render (MetricsJSON) and the counter reads come after it and are untimed.
type simOut struct {
	wall, render            time.Duration
	cycles, events, mallocs uint64
	sorted                  bool
	metrics                 []byte
	group                   sim.GroupSync
	model                   modelCounts
	err                     error
}

// simulate runs one cold simulation: a fresh prototype, a freshly booted
// kernel and one IS input. tr records its spans (nil records none).
func simulate(cfg core.Config, ip workload.ISParams, tr *tracer, op string) (out simOut) {
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("simulation %s panicked: %v", op, r)
		}
	}()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs

	t0 := time.Now()
	root := tr.open("sim", op, -1, t0)
	p, err := core.Build(cfg)
	t1 := time.Now()
	tr.add("core.build", op, root, t0, t1)
	if err != nil {
		out.err = err
		return out
	}
	k := kernel.New(p, kernel.DefaultConfig())
	t2 := time.Now()
	tr.add("kernel.boot", op, root, t1, t2)
	wl := tr.open("workload.run", op, root, t2)
	k.SetRunner(func() sim.Time {
		s := time.Now()
		now := p.Run()
		tr.add("sim.run", op, wl, s, time.Now())
		return now
	})
	res := workload.RunIS(k, ip)
	out.sorted = res.Sorted
	t3 := time.Now()
	tr.close(wl, t3)
	tr.close(root, t3)
	out.wall = t3.Sub(t0)

	runtime.ReadMemStats(&ms)
	out.mallocs = ms.Mallocs - mallocs
	out.cycles = uint64(p.Now())
	seen := map[*sim.Engine]bool{}
	for n := 0; n < cfg.TotalNodes(); n++ {
		if e := p.EngineForNode(n); !seen[e] {
			seen[e] = true
			out.events += e.Executed()
		}
	}
	if p.Group != nil {
		out.group = p.Group.SyncSnapshot()
	}
	if tr != nil {
		for _, st := range p.ShardRegistries() {
			for name, v := range st.CounterSnapshot() {
				out.model.add(name, v)
			}
		}
		out.model.cycles = out.cycles
	}
	r0 := time.Now()
	out.metrics, out.err = p.MetricsJSON()
	out.render = time.Since(r0)
	return out
}

// sameReport compares a report with its reference; with o.corrupt the
// reference is damaged first, which must register as a failure.
func sameReport(o options, got, ref []byte) bool {
	if o.corrupt && len(ref) > 0 {
		ref = append([]byte(nil), ref...)
		ref[len(ref)/2] ^= 1
	}
	return len(got) > 0 && bytes.Equal(got, ref)
}

// runSerialNUMA48 holds the process to one P. The serial engine is one
// goroutine, so this is how simulations are run one per core; it also keeps
// the collector on the simulation's own core instead of a second vCPU whose
// speed, on a shared host, varies with its neighbours' load.
func runSerialNUMA48(o options) (*measurement, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return runSims(o, numa48)
}

func runSharded2x2x12(o options) (*measurement, error) { return runSims(o, sharded48) }

// runSims runs simulations back to back until the timed region (the summed
// simulation wall time) reaches o.seconds and at least o.minOps ran, or
// maxRun passed. A
// sharded shape also runs each input on the serial engine, untimed, and
// requires byte-identical MetricsJSON; a serial shape re-runs one input
// untimed and requires the same. A traced run records spans in its second
// half only; the first half is its untraced baseline.
func runSims(o options, sh simShape) (*measurement, error) {
	m := newMeasurement()
	rec := newTracer()
	threads := sh.fpgas * sh.nodes * sh.tiles
	sharded := sh.parallel > 0

	var (
		timed                      time.Duration
		walls, camp                []float64
		tracedWalls, untracedWalls []float64
		refWalls                   []float64
		cycles, mallocs            uint64
		nTraced                    int
		tEvents, tMallocs          uint64
		windows, chunks, envs      uint64
		horizon, lookahead         uint64
		model                      modelCounts
		checkIdx                   = -1
		checkReport                []byte
		identical                  = true
	)
	cfg := sh.config(sh.parallel)
	setupS, err := setupSeconds(o.setupReps, func() (time.Duration, error) {
		t0 := time.Now()
		p, err := core.Build(cfg)
		if err == nil {
			kernel.New(p, kernel.DefaultConfig())
		}
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	runtime.GC() // the set-ups' garbage is no simulation's
	start := time.Now()
	for i := 0; (timed.Seconds() < o.seconds || i < o.minOps) && time.Since(start) < maxRun; i++ {
		if o.trace && timed.Seconds() >= o.seconds/2 && i >= o.minOps/2 {
			rec.enable()
		}
		tr := rec.active()
		op := fmt.Sprintf("sim%d", i)
		ip := isInput(o, i, threads)
		out := simulate(cfg, ip, tr, op)
		// Collecting a simulation's garbage before the next one starts
		// keeps every simulation's heap, and so the peak RSS, alike. The
		// collection is the simulation's cost: it counts in the timed
		// region, though not in sim_s, which ends at the verified result.
		g0 := time.Now()
		runtime.GC()
		collect := time.Since(g0)
		m.attempted++
		ok := out.err == nil && out.sorted
		if out.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", op, out.err)
		}
		if sharded && out.err == nil {
			ref := simulate(sh.config(0), ip, nil, op+"-serial")
			runtime.GC() // the reference's garbage, untimed
			refWalls = append(refWalls, ref.wall.Seconds())
			same := ref.err == nil && sameReport(o, out.metrics, ref.metrics)
			ok = ok && same
			if tr != nil {
				identical = identical && same
			}
		}
		if !sharded && checkIdx < 0 && (tr != nil || !o.trace) {
			checkIdx, checkReport = i, out.metrics
		}
		if !ok {
			m.failed++
		}
		timed += out.wall + collect
		walls = append(walls, out.wall.Seconds())
		camp = append(camp, (out.wall + out.render).Seconds())
		cycles += out.cycles
		mallocs += out.mallocs
		if tr == nil {
			untracedWalls = append(untracedWalls, out.wall.Seconds())
			continue
		}
		nTraced++
		tracedWalls = append(tracedWalls, out.wall.Seconds())
		tEvents += out.events
		tMallocs += out.mallocs
		windows += out.group.Windows
		chunks += out.group.Chunks
		horizon += uint64(out.group.Horizon)
		lookahead = uint64(out.group.Lookahead)
		for _, s := range out.group.Shards {
			envs += s.EnvOut
		}
		model.merge(out.model)
	}
	if !sharded && checkIdx >= 0 {
		ref := simulate(sh.config(0), isInput(o, checkIdx, threads), nil, fmt.Sprintf("sim%d-rerun", checkIdx))
		same := ref.err == nil && sameReport(o, checkReport, ref.metrics)
		if !same {
			m.failed++
		}
		identical = same
	}

	m.e2e["sim_cycles_per_s"] = float64(cycles) / timed.Seconds()
	m.e2e["sim_s_p50"] = quantile(walls, 0.5)
	m.e2e["sim_s_p90"] = quantile(walls, 0.9)
	m.e2e["points_per_hour"] = float64(len(walls)) / timed.Seconds() * 3600
	m.e2e["campaign_s_p50"] = quantile(camp, 0.5)
	m.e2e["campaign_s_p90"] = quantile(camp, 0.9)
	m.e2e["setup_s"] = setupS
	m.e2e["peak_rss_mb"] = peakRSSMiB()
	m.e2e["allocs_per_kcycle"] = ratio(mallocs*1000, cycles)
	m.info["simulations"] = len(walls)
	m.info["is_keys"] = o.keys
	m.info["shape"] = fmt.Sprintf("%dx%dx%d", sh.fpgas, sh.nodes, sh.tiles)
	m.info["parallel"] = sh.parallel
	m.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	if !o.trace {
		return m, nil
	}

	lt := rec.selfTimes()
	perOp := func(name string) time.Duration {
		if l := lt[name]; l != nil && nTraced > 0 {
			return l.own / time.Duration(nTraced)
		}
		return 0
	}
	l := m.layer
	l["core.build_ms"] = ms(perOp("core.build"))
	l["kernel.boot_ms"] = ms(perOp("kernel.boot"))
	l["workload.host_s"] = perOp("workload.run").Seconds()
	l["sim.run_s"] = perOp("sim.run").Seconds()
	if nTraced > 0 {
		l["sim.events"] = float64(tEvents) / float64(nTraced)
	}
	if r := lt["sim.run"]; r != nil {
		l["sim.ns_per_event"] = ratio(uint64(r.total.Nanoseconds()), tEvents)
	}
	l["sim.events_per_kcycle"] = ratio(tEvents*1000, model.cycles)
	l["sim.allocs_per_event"] = ratio(tMallocs, tEvents)
	if sharded {
		l["group.windows_per_kcycle"] = ratio(windows*1000, model.cycles)
		l["group.chunks_per_window"] = ratio(chunks, windows)
		l["group.avg_width"] = ratio(horizon, windows*lookahead)
		l["group.envelopes_per_kcycle"] = ratio(envs*1000, model.cycles)
		l["group.speedup_vs_serial"] = quantile(refWalls, 0.5) / quantile(walls, 0.5)
	}
	model.report(l)
	l["trace.overhead_frac"] = overhead(tracedWalls, untracedWalls)
	l["trace.accounted_frac"] = accounted(lt["sim"], untracedWalls)
	if identical && nTraced > 0 {
		l["trace.counters_identical"] = 1
	}
	m.info["traced_simulations"] = nTraced
	return m, finishTrace(o, rec, lt)
}

// setupBatch is how many set-ups one setup_s sample averages: one
// Build+kernel.New takes about half a millisecond, too short to time alone.
const setupBatch = 10

// setupSeconds times reps batches of setupBatch set-ups and returns the
// median batch's mean seconds per set-up. setup does one set-up and returns
// the time of the part that counts. A first, untimed batch grows the fresh
// process's heap, which a user pays once and not per set-up.
//
// Set-ups run on one P. Their steps follow one another, and on two Ps the
// fresh fleet workers' cross-CPU wake-ups and the collector's concurrent
// marking moved the median between processes by a third.
func setupSeconds(reps int, setup func() (time.Duration, error)) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	means := make([]float64, 0, reps+1)
	for r := 0; r <= reps; r++ {
		var sum time.Duration
		for b := 0; b < setupBatch; b++ {
			d, err := setup()
			if err != nil {
				return 0, fmt.Errorf("set-up: %w", err)
			}
			sum += d
		}
		means = append(means, sum.Seconds()/setupBatch)
	}
	return quantile(means[1:], 0.5), nil
}

// accounted is the mean time a traced operation's child spans cover over
// the mean wall time of the run's untraced operations, which no span
// measured: near 1 when the layer spans account for an operation and
// tracing costs little; 0 when either side has no sample.
func accounted(root *layerTime, untraced []float64) float64 {
	if root == nil || root.n == 0 || len(untraced) == 0 {
		return 0
	}
	var sum float64
	for _, w := range untraced {
		sum += w
	}
	return (root.total - root.own).Seconds() / float64(root.n) / (sum / float64(len(untraced)))
}

// finishTrace prints each span's self time and writes the spans out.
func finishTrace(o options, rec *tracer, lt map[string]*layerTime) error {
	writeSelfTimes(os.Stdout, lt)
	path, err := rec.write(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# spans written to %s\n", path)
	return nil
}
