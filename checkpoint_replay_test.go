// Differential harness for replay checkpoints: a run that checkpoints
// mid-flight and a run restored from that checkpoint must both be
// byte-identical to the uninterrupted reference — same MetricsJSON, same
// final time, same console output — in serial and sharded mode, with and
// without a PCIe fault plan (so cuts land mid-retransmission).
package smappic_test

import (
	"bytes"
	"errors"
	"testing"

	"smappic"
	"smappic/internal/ckpt"
	"smappic/internal/core"
	"smappic/internal/rvasm"
)

// replayCfg is the configuration under test: multi-FPGA so the cut crosses
// bridge and PCIe traffic.
func replayCfg(t *testing.T, parallel int, faults string) smappic.Config {
	return replayCfgAdaptive(t, parallel, faults, 0)
}

// replayCfgAdaptive additionally pins the adaptive-lookahead cap (0 keeps
// the default widening cap).
func replayCfgAdaptive(t *testing.T, parallel int, faults string, adaptive int) smappic.Config {
	return replayCfgShaped(t, 4, 1, parallel, faults, adaptive)
}

// replayCfgShaped is the fully-parameterized builder: shape (a FPGAs of b
// nodes), engine mode, fault plan and widening cap.
func replayCfgShaped(t *testing.T, a, b, parallel int, faults string, adaptive int) smappic.Config {
	t.Helper()
	cfg := smappic.DefaultConfig(a, b, 2)
	cfg.Parallel = parallel
	cfg.AdaptiveLookahead = adaptive
	cfg.Seed = 42
	if faults != "" {
		var err error
		cfg.Faults, err = smappic.ParseFaults(faults, 5)
		if err != nil {
			t.Fatal(err)
		}
	}
	return cfg
}

// replayOutcome captures everything a completed run must reproduce.
func replayOutcome(t *testing.T, p *core.Prototype) diffOutcome {
	t.Helper()
	if !p.AllHalted() {
		t.Fatal("harts did not halt")
	}
	m, err := p.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := uint64(0)
	host := p.Host()
	for n := 0; n < p.Cfg.TotalNodes(); n++ {
		for _, ch := range host.Console(n) {
			sum = sum*31 + uint64(ch)
		}
	}
	return diffOutcome{metrics: m, cycles: p.Now(), checksum: sum}
}

// startReplayProto builds a prototype and loads the cross-node program.
func startReplayProto(t *testing.T, cfg smappic.Config) *core.Prototype {
	t.Helper()
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := rvasm.MustAssemble(smappic.ResetPC, diffProgram)
	host := p.Host()
	for n := 0; n < p.Cfg.TotalNodes(); n++ {
		host.LoadProgram(n, prog)
	}
	p.Start()
	return p
}

// TestReplayCheckpointRoundTrip checkpoints a RISC-V run at mid-run cycles,
// restores each snapshot via deterministic replay, and requires the
// continued run to match the uninterrupted reference byte for byte.
func TestReplayCheckpointRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		a, b     int
		parallel int
		faults   string
		adaptive int
	}{
		{"serial", 4, 1, 0, "", 0},
		{"serial-faults", 4, 1, 0, pcieFaults, 0},
		// Serial ignores the adaptive knob entirely; the row proves a config
		// carrying it still round-trips (same ConfigHash, same replay).
		{"serial-adaptive-cfg", 4, 1, 0, "", 16},
		// The plain sharded rows run under the default widening cap, so the
		// cut lands at adaptively-widened window boundaries; the fixed row
		// pins the pre-adaptive discipline.
		{"sharded", 4, 1, 4, "", 0},
		{"sharded-fixed", 4, 1, 4, "", 1},
		{"sharded-faults", 4, 1, 4, pcieFaults, 0},
		// Two nodes per FPGA share each shard engine, so the cut also lands
		// among intra-FPGA interconnect hops inside a shard.
		{"sharded-2x2", 2, 2, 2, "", 0},
		{"sharded-2x2-fixed", 2, 2, 2, "", 1},
		{"sharded-2x2-faults", 2, 2, 2, pcieFaults, 0},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := replayCfgShaped(t, tc.a, tc.b, tc.parallel, tc.faults, tc.adaptive)

			cold := startReplayProto(t, cfg)
			cold.RunUntilHalted(20_000_000)
			want := replayOutcome(t, cold)

			for _, at := range []smappic.Time{500, 2_000, want.cycles / 2} {
				// Checkpointing run: pause at the cut, snapshot, continue.
				// The pause itself must not perturb the result.
				p := startReplayProto(t, cfg)
				p.RunUntilHalted(at)
				var buf bytes.Buffer
				if err := p.Checkpoint(&buf); err != nil {
					t.Fatalf("at=%d: Checkpoint: %v", at, err)
				}
				p.RunUntilHalted(20_000_000)
				if got := replayOutcome(t, p); !bytes.Equal(got.metrics, want.metrics) ||
					got.cycles != want.cycles || got.checksum != want.checksum {
					t.Fatalf("at=%d: checkpointing run diverged from reference", at)
				}

				// Restored run: rebuild, replay to the cursor, continue.
				r, snap, err := core.RestorePrototype(bytes.NewReader(buf.Bytes()), cfg)
				if err != nil {
					t.Fatalf("at=%d: RestorePrototype: %v", at, err)
				}
				prog := rvasm.MustAssemble(smappic.ResetPC, diffProgram)
				host := r.Host()
				for n := 0; n < r.Cfg.TotalNodes(); n++ {
					host.LoadProgram(n, prog)
				}
				r.Start()
				if err := r.Replay(snap); err != nil {
					t.Fatalf("at=%d: Replay: %v", at, err)
				}
				r.RunUntilHalted(20_000_000)
				got := replayOutcome(t, r)
				if got.cycles != want.cycles {
					t.Errorf("at=%d: final time %d, want %d", at, got.cycles, want.cycles)
				}
				if got.checksum != want.checksum {
					t.Errorf("at=%d: console checksum %#x, want %#x", at, got.checksum, want.checksum)
				}
				if !bytes.Equal(got.metrics, want.metrics) {
					t.Errorf("at=%d: MetricsJSON diverges:\n%s", at, firstDiff(got.metrics, want.metrics))
				}
			}
		})
	}
}

// TestReplayRejectsModeMismatch restores a serial snapshot into a sharded
// build (and vice versa); both must be refused with a typed error. A
// sharded cursor restores into a sharded build whatever either run's
// Parallel value: both shard one engine per FPGA.
func TestReplayRejectsModeMismatch(t *testing.T) {
	snapFor := func(parallel int) []byte {
		cfg := replayCfg(t, parallel, "")
		p := startReplayProto(t, cfg)
		p.RunUntilHalted(2_000)
		var buf bytes.Buffer
		if err := p.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name    string
		snapPar int
		restPar int
		ok      bool
	}{
		{"serial-into-sharded", 0, 4, false},
		{"sharded-into-serial", 4, 0, false},
		{"sharded-2-into-sharded-4", 2, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, snap := restoreReplayProto(t, snapFor(tc.snapPar), replayCfg(t, tc.restPar, ""))
			err := p.Replay(snap)
			if tc.ok {
				if err != nil {
					t.Fatalf("replay between sharded builds: %v", err)
				}
				return
			}
			var me *ckpt.MismatchError
			if !errors.As(err, &me) {
				t.Fatalf("replay across engine modes: error %T (%v), want MismatchError", err, err)
			}
		})
	}
}

// restoreReplayProto rebuilds a prototype for a snapshot and loads and
// starts the cross-node program, ready for Replay.
func restoreReplayProto(t *testing.T, raw []byte, cfg smappic.Config) (*core.Prototype, *ckpt.Snapshot) {
	t.Helper()
	p, snap, err := core.RestorePrototype(bytes.NewReader(raw), cfg)
	if err != nil {
		t.Fatalf("RestorePrototype: %v", err)
	}
	prog := rvasm.MustAssemble(smappic.ResetPC, diffProgram)
	host := p.Host()
	for n := 0; n < p.Cfg.TotalNodes(); n++ {
		host.LoadProgram(n, prog)
	}
	p.Start()
	return p, snap
}

// TestReplayRejectsAdaptiveMismatch restores a sharded snapshot taken under
// the default widening cap into a fixed-window build: the window cursor is
// meaningless across caps, so replay must refuse with a typed error rather
// than silently stepping a different window sequence.
func TestReplayRejectsAdaptiveMismatch(t *testing.T) {
	cfg := replayCfgAdaptive(t, 4, "", 0)
	p := startReplayProto(t, cfg)
	p.RunUntilHalted(5_000)
	var buf bytes.Buffer
	if err := p.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	r, snap := restoreReplayProto(t, buf.Bytes(), replayCfgAdaptive(t, 4, "", 1))
	err := r.Replay(snap)
	var me *ckpt.MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("replay across adaptive caps: error %T (%v), want MismatchError", err, err)
	}
}

// TestReplayRejectsGranularityMismatch seals sharded cursors carrying each
// shard granularity a snapshot may hold. "fpga" (what current builds
// write) and "" (snapshots predating the field) restore; "node", written by
// builds that could also shard per node, counts windows of a synchronizer
// that no longer exists and must be refused with a typed error naming the
// shard granularity — never a panic.
func TestReplayRejectsGranularityMismatch(t *testing.T) {
	cfg := replayCfgAdaptive(t, 2, "", 0)
	p := startReplayProto(t, cfg)
	p.RunUntilHalted(5_000)
	var buf bytes.Buffer
	if err := p.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		snapGran string
		ok       bool
	}{
		{"fpga-into-fpga-ok", "fpga", true},
		{"node-into-fpga", "node", false},
		// The zero value means per-FPGA: a legacy snapshot without the field
		// must restore, not be rejected.
		{"default-into-fpga-ok", "", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, err := ckpt.Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			snap.Replay.Granularity = tc.snapGran
			var sealed bytes.Buffer
			if err := snap.Write(&sealed); err != nil {
				t.Fatal(err)
			}
			r, rs := restoreReplayProto(t, sealed.Bytes(), cfg)
			err = r.Replay(rs)
			if tc.ok {
				if err != nil {
					t.Fatalf("per-FPGA cursor replay failed: %v", err)
				}
				return
			}
			var me *ckpt.MismatchError
			if !errors.As(err, &me) || me.Field != "shard granularity" {
				t.Fatalf("replay of a %q cursor: error %T (%v), want shard granularity MismatchError", tc.snapGran, err, err)
			}
		})
	}
}
