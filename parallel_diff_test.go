// Differential harness for the sharded engine: every configuration below is
// simulated twice — once on the serial reference engine and once sharded
// across goroutines under the lookahead synchronizer — and the two runs must
// agree byte-for-byte on the MetricsJSON document, on the final simulated
// time, and on the workload's output checksum. Any scheduling divergence
// between the modes shows up as a counter or cycle-count drift, so this is
// the equivalence proof the parallel engine rests on.
package smappic_test

import (
	"bytes"
	"fmt"
	"testing"

	"smappic"
	"smappic/internal/accel"
	"smappic/internal/core"
	"smappic/internal/kernel"
	"smappic/internal/rvasm"
	"smappic/internal/workload"
)

// diffOutcome is everything a run must reproduce exactly.
type diffOutcome struct {
	metrics  []byte
	cycles   smappic.Time
	checksum uint64
}

// diffCase is one row of the differential table.
type diffCase struct {
	name     string
	a, b, c  int    // shape
	workload string // is | irregular | noise | riscv
	numa     bool
	faults   string
	seed     uint64
	adaptive int // AdaptiveLookahead for the sharded run (0 = default cap)
}

// buildProto builds one prototype for a case in the requested mode.
func buildProto(t *testing.T, dc diffCase, parallel int) *core.Prototype {
	t.Helper()
	cfg := smappic.DefaultConfig(dc.a, dc.b, dc.c)
	cfg.Parallel = parallel
	cfg.AdaptiveLookahead = dc.adaptive
	cfg.Seed = dc.seed
	if dc.workload != "riscv" {
		cfg.Core = core.CoreNone
	}
	if dc.faults != "" {
		var err error
		cfg.Faults, err = smappic.ParseFaults(dc.faults, dc.seed)
		if err != nil {
			t.Fatal(err)
		}
	}
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runCase executes one configuration in one mode and captures the outcome.
func runCase(t *testing.T, dc diffCase, parallel int) diffOutcome {
	t.Helper()
	p := buildProto(t, dc, parallel)
	var out diffOutcome

	switch dc.workload {
	case "is":
		kc := kernel.DefaultConfig()
		kc.NUMA = dc.numa
		kc.Seed = dc.seed
		k := kernel.New(p, kc)
		ip := workload.DefaultISParams(p.Cfg.TotalTiles())
		ip.Keys = 1 << 12
		r := workload.RunIS(k, ip)
		if !r.Sorted {
			t.Fatalf("%s: output not sorted", dc.name)
		}
		out.checksum = r.Checksum
	case "irregular":
		kc := kernel.DefaultConfig()
		kc.NUMA = dc.numa
		kc.Seed = dc.seed
		k := kernel.New(p, kc)
		ip := workload.DefaultIrregularParams()
		ip.Rows = 256
		r := workload.RunIrregular(k, workload.SPMV, workload.WithMAPLE, ip)
		out.checksum = r.Checksum
	case "noise":
		p.Nodes[0].Tiles[1].Accel = accel.NewGNG(1, p.StatsForNode(0), "gng")
		kc := kernel.DefaultConfig()
		kc.NUMA = dc.numa
		kc.Seed = dc.seed
		k := kernel.New(p, kc)
		np := workload.DefaultNoiseParams()
		r := workload.RunNoiseGenerator(k, workload.NoiseHW2, np)
		out.checksum = uint64(r.Cycles)
	case "riscv":
		host := p.Host()
		prog := rvasm.MustAssemble(smappic.ResetPC, diffProgram)
		for n := 0; n < p.Cfg.TotalNodes(); n++ {
			host.LoadProgram(n, prog)
		}
		p.Start()
		p.RunUntilHalted(20_000_000)
		if !p.AllHalted() {
			t.Fatalf("%s: harts did not halt", dc.name)
		}
		sum := uint64(0)
		for n := 0; n < p.Cfg.TotalNodes(); n++ {
			for _, ch := range host.Console(n) {
				sum = sum*31 + uint64(ch)
			}
		}
		out.checksum = sum
	default:
		t.Fatalf("unknown workload %q", dc.workload)
	}

	m, err := p.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	out.metrics = m
	out.cycles = p.Now()
	return out
}

// diffProgram is the cross-node RISC-V payload: every hart halts, hart 0 of
// every node prints a banner (UART traffic exercises MMIO and interrupts).
const diffProgram = `
	csrr t0, mhartid
	bnez t0, halt
	la   s0, msg
	li   s1, 0xF000001000
putc:	lbu  t1, 0(s0)
	beqz t1, halt
	sd   t1, 0(s1)
wait:	ld   t2, 40(s1)
	andi t2, t2, 0x20
	beqz t2, wait
	addi s0, s0, 1
	j    putc
halt:	li a0, 0
	ebreak
msg:	.asciz "diff\n"
`

// pcieFaults is the drop/delay mix used by the fault-plan rows: drops force
// the reliable-delivery retransmission path, delays shift arrival times.
const pcieFaults = "pcie.*.drop:p=0.02;pcie.*.delay:p=0.01,cycles=300"

func diffCases() []diffCase {
	var cases []diffCase
	// IS across the shape ladder (1, 2, 4, 8 nodes), both NUMA modes,
	// with and without PCIe fault plans, two seeds each for the big shape.
	for _, sh := range []struct{ a, b, c int }{
		{1, 1, 2}, {2, 1, 2}, {4, 1, 2}, {2, 2, 2}, {4, 2, 2},
	} {
		for _, numa := range []bool{true, false} {
			cases = append(cases, diffCase{
				name: fmt.Sprintf("is-%dx%dx%d-numa=%v", sh.a, sh.b, sh.c, numa),
				a:    sh.a, b: sh.b, c: sh.c,
				workload: "is", numa: numa, seed: 42,
			})
		}
		if sh.a > 1 {
			cases = append(cases, diffCase{
				name: fmt.Sprintf("is-%dx%dx%d-faults", sh.a, sh.b, sh.c),
				a:    sh.a, b: sh.b, c: sh.c,
				workload: "is", numa: true, faults: pcieFaults, seed: 7,
			})
		}
	}
	cases = append(cases,
		diffCase{name: "is-4x2x2-seed9", a: 4, b: 2, c: 2, workload: "is", numa: false, seed: 9},
		diffCase{name: "is-4x2x2-faults-numa-off", a: 4, b: 2, c: 2, workload: "is", numa: false, faults: pcieFaults, seed: 11},
		// Irregular kernels with the MAPLE engine (single-node compute,
		// multi-FPGA build still exercises idle-shard synchronization).
		diffCase{name: "irregular-1x1x6", a: 1, b: 1, c: 6, workload: "irregular", numa: true, seed: 42},
		diffCase{name: "irregular-2x1x6", a: 2, b: 1, c: 6, workload: "irregular", numa: true, seed: 42},
		diffCase{name: "irregular-2x1x6-faults", a: 2, b: 1, c: 6, workload: "irregular", numa: true, faults: pcieFaults, seed: 13},
		// GNG noise generation through accelerator MMIO.
		diffCase{name: "noise-1x1x2", a: 1, b: 1, c: 2, workload: "noise", numa: true, seed: 42},
		diffCase{name: "noise-2x1x2", a: 2, b: 1, c: 2, workload: "noise", numa: true, seed: 42},
		// Full RISC-V cores over the bridge/PCIe fabric.
		diffCase{name: "riscv-4x1x2", a: 4, b: 1, c: 2, workload: "riscv", seed: 42},
		diffCase{name: "riscv-4x1x2-faults", a: 4, b: 1, c: 2, workload: "riscv", faults: pcieFaults, seed: 5},
	)
	return cases
}

// TestShardedMatchesSerial is the differential table: sharded == serial,
// byte for byte, across node counts, workloads, fault plans and seeds —
// and for every row, both with fixed windows (AdaptiveLookahead 1) and
// under the default adaptive widening cap. Adaptive widening is execution
// scheduling only, so every sharded variant must reproduce the one serial
// outcome.
func TestShardedMatchesSerial(t *testing.T) {
	for _, dc := range diffCases() {
		dc := dc
		t.Run(dc.name, func(t *testing.T) {
			t.Parallel()
			serial := runCase(t, dc, 0)
			for _, mode := range []struct {
				name     string
				adaptive int
			}{{"fixed", 1}, {"adaptive", 0}} {
				dc := dc
				dc.adaptive = mode.adaptive
				sharded := runCase(t, dc, dc.a)
				if serial.cycles != sharded.cycles {
					t.Errorf("%s: final time: serial %d, sharded %d", mode.name, serial.cycles, sharded.cycles)
				}
				if serial.checksum != sharded.checksum {
					t.Errorf("%s: checksum: serial %#x, sharded %#x", mode.name, serial.checksum, sharded.checksum)
				}
				if !bytes.Equal(serial.metrics, sharded.metrics) {
					t.Errorf("%s: MetricsJSON diverges (%d vs %d bytes):\n%s",
						mode.name, len(serial.metrics), len(sharded.metrics), firstDiff(serial.metrics, sharded.metrics))
				}
			}
		})
	}
}

// firstDiff renders the first divergent region of two byte slices.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 120
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := i+120, i+120
			if hiA > len(a) {
				hiA = len(a)
			}
			if hiB > len(b) {
				hiB = len(b)
			}
			return fmt.Sprintf("first diff at byte %d:\nserial:  …%s…\nsharded: …%s…", i, a[lo:hiA], b[lo:hiB])
		}
	}
	return fmt.Sprintf("length mismatch at byte %d", n)
}
