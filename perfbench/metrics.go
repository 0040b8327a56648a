package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd is what a user of the simulator sees; every workload reports
// all of them, measured with tracing off. BENCHMARK.json lists the same
// names and units (the self-test checks they agree).
var endToEnd = []metricDef{
	{"sim_cycles_per_s", "cycles/s"},
	{"sim_s_p50", "s"},
	{"sim_s_p90", "s"},
	{"points_per_hour", "points/h"},
	{"campaign_s_p50", "s"},
	{"campaign_s_p90", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"allocs_per_kcycle", "allocs/kcycle"},
}

// perLayer comes from the traced run. BASELINE.md says which end-to-end
// metric each should move, and on which workload.
var perLayer = []metricDef{
	{"core.build_ms", "ms"},
	{"kernel.boot_ms", "ms"},
	{"workload.host_s", "s"},
	{"sim.run_s", "s"},
	{"sim.events", "events"},
	{"sim.ns_per_event", "ns"},
	{"sim.events_per_kcycle", "events/kcycle"},
	{"sim.allocs_per_event", "allocs/event"},
	{"group.windows_per_kcycle", "windows/kcycle"},
	{"group.chunks_per_window", "ratio"},
	{"group.avg_width", "lookaheads"},
	{"group.envelopes_per_kcycle", "envs/kcycle"},
	{"group.speedup_vs_serial", "ratio"},
	{"noc.flits_per_kcycle", "flits/kcycle"},
	{"noc.wait_cycles_per_flit", "cycles/flit"},
	{"cache.l1_miss_ratio", "ratio"},
	{"cache.llc_miss_ratio", "ratio"},
	{"bridge.packets_per_kcycle", "pkts/kcycle"},
	{"bridge.credit_stall_per_packet", "ratio"},
	{"ic.hops_per_kcycle", "hops/kcycle"},
	{"pcie.transfers_per_kcycle", "xfers/kcycle"},
	{"mem.dram_reads_per_kcycle", "reads/kcycle"},
	{"fleetsrv.submit_ms_p50", "ms"},
	{"fleetsrv.lease_ms_p50", "ms"},
	{"fleetsrv.lease_ms_p90", "ms"},
	{"fleetsrv.result_ms_p50", "ms"},
	{"fleetsrv.result_ms_p90", "ms"},
	{"fleetsrv.empty_lease_ratio", "ratio"},
	{"fleetsrv.queue_wait_ms_p50", "ms"},
	{"campaign.exec_s_p50", "s"},
	{"campaign.cache_hit_ratio", "ratio"},
	{"failed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.accounted_frac", "ratio"},
	{"trace.counters_identical", "bool"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMiB reads the process's VmHWM; 0 where /proc is unavailable.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// modelCounts sums the model's own counters over simulations. A change that
// only speeds up the simulator leaves every one of them identical.
type modelCounts struct {
	cycles                         uint64
	flits, waitCycles              uint64
	l1Hit, l1Miss, llcHit, llcMiss uint64
	bridgePkts, creditStalls       uint64
	icHops, pcieXfers, dramReads   uint64
}

// add folds one counter of a registry snapshot, named hierarchically like
// node0.mesh.noc1.flits, node1.tile3.bpc.l1_miss or pcie.ep0.tx_transfers.
func (m *modelCounts) add(name string, v uint64) {
	segs := strings.Split(name, ".")
	if len(segs) < 2 {
		return
	}
	leaf, parent := segs[len(segs)-1], segs[len(segs)-2]
	switch {
	case strings.HasPrefix(parent, "noc") && leaf == "flits":
		m.flits += v
	case strings.HasPrefix(parent, "noc") && leaf == "wait_cycles":
		m.waitCycles += v
	case parent == "bpc" && leaf == "l1_hit":
		m.l1Hit += v
	case parent == "bpc" && leaf == "l1_miss":
		m.l1Miss += v
	case parent == "llc" && leaf == "llc_hit":
		m.llcHit += v
	case parent == "llc" && leaf == "llc_miss":
		m.llcMiss += v
	case parent == "bridge" && leaf == "tx_packets":
		m.bridgePkts += v
	case parent == "bridge" && leaf == "credit_stall":
		m.creditStalls += v
	case parent == "ic" && (leaf == "reads" || leaf == "writes"):
		m.icHops += v
	case strings.HasPrefix(parent, "ep") && len(segs) >= 3 && segs[len(segs)-3] == "pcie" && leaf == "tx_transfers":
		m.pcieXfers += v
	case parent == "dram" && leaf == "reads":
		m.dramReads += v
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// report writes the model metrics into layer.
func (m *modelCounts) report(layer map[string]float64) {
	perK := func(n uint64) float64 { return ratio(n*1000, m.cycles) }
	layer["noc.flits_per_kcycle"] = perK(m.flits)
	layer["noc.wait_cycles_per_flit"] = ratio(m.waitCycles, m.flits)
	layer["cache.l1_miss_ratio"] = ratio(m.l1Miss, m.l1Hit+m.l1Miss)
	layer["cache.llc_miss_ratio"] = ratio(m.llcMiss, m.llcHit+m.llcMiss)
	layer["bridge.packets_per_kcycle"] = perK(m.bridgePkts)
	layer["bridge.credit_stall_per_packet"] = ratio(m.creditStalls, m.bridgePkts)
	layer["ic.hops_per_kcycle"] = perK(m.icHops)
	layer["pcie.transfers_per_kcycle"] = perK(m.pcieXfers)
	layer["mem.dram_reads_per_kcycle"] = perK(m.dramReads)
}

// merge adds another simulation's counts.
func (m *modelCounts) merge(o modelCounts) {
	m.cycles += o.cycles
	m.flits += o.flits
	m.waitCycles += o.waitCycles
	m.l1Hit += o.l1Hit
	m.l1Miss += o.l1Miss
	m.llcHit += o.llcHit
	m.llcMiss += o.llcMiss
	m.bridgePkts += o.bridgePkts
	m.creditStalls += o.creditStalls
	m.icHops += o.icHops
	m.pcieXfers += o.pcieXfers
	m.dramReads += o.dramReads
}

// overhead is the traced operations' median time over the untraced ones',
// minus one; 0 when either side has no sample.
func overhead(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return quantile(traced, 0.5)/quantile(untraced, 0.5) - 1
}
