package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// fuzzCaps is the adaptive-cap palette the fuzzer picks from; it spans
// fixed windows, small caps (frequent widen/collapse transitions) and the
// default.
var fuzzCaps = [...]int{1, 2, 4, 8, DefaultAdaptiveCap}

// fuzzScenario is a decoded fuzz input: a shard count, an adaptive cap and
// a list of cross-shard sends with pseudo-random issue times and latencies.
type fuzzScenario struct {
	shards int
	cap    int
	ops    []fuzzOp
}

// fuzzOp is one cross-shard send: issued on shard src at issue time, it
// delivers on dst lookahead+extra cycles later. Colliding (dst, cycle)
// pairs are common by construction — issue times and extras are drawn from
// small ranges — which is exactly what exercises the canonical merge.
type fuzzOp struct {
	src, dst int
	issue    Time
	extra    Time
}

// decodeFuzzScenario maps raw fuzz bytes onto a scenario. Every byte
// string decodes to something runnable (or nil for "too short"), so the
// fuzzer explores freely.
func decodeFuzzScenario(data []byte, la Time) *fuzzScenario {
	if len(data) < 2 {
		return nil
	}
	sc := &fuzzScenario{
		shards: 2 + int(data[0])%3, // 2..4
		cap:    fuzzCaps[int(data[1])%len(fuzzCaps)],
	}
	cursors := make([]Time, sc.shards) // per-shard issue-time cursor
	for i := 2; i+3 < len(data) && len(sc.ops) < 64; i += 4 {
		src := int(data[i]) % sc.shards
		dst := int(data[i+1]) % sc.shards
		if dst == src {
			dst = (dst + 1) % sc.shards
		}
		// Advance the source's cursor by 0..2*la-1 cycles, so consecutive
		// sends land in the same window, adjacent windows, or far apart.
		cursors[src] += Time(data[i+2]) % (2 * la)
		sc.ops = append(sc.ops, fuzzOp{
			src:   src,
			dst:   dst,
			issue: 1 + cursors[src],
			// 0..la-1 extra cycles on top of the lookahead: deliveries stay
			// legal but collide across sources at shared cycles.
			extra: Time(data[i+3]) % la,
		})
	}
	return sc
}

// fuzzDelivery is one observed delivery, recorded at the destination in
// execution order with everything the canonical contract sorts by.
type fuzzDelivery struct {
	At   Time
	Sent Time
	Src  int
	Op   int // op index; increases with the per-source sequence
}

// runFuzzScenario executes a scenario on the given net constructor and
// returns the per-shard delivery logs plus the final time. Each op is a
// scheduled event on its source engine that performs the cross-shard send
// from the source's execution context, as the real fabric does.
func runFuzzScenario(sc *fuzzScenario, la Time, engs []*Engine, net CrossNet, drain func() Time) ([][]fuzzDelivery, Time) {
	logs := make([][]fuzzDelivery, sc.shards)
	for i, op := range sc.ops {
		op, i := op, i
		src := engs[op.src]
		dst := engs[op.dst]
		src.At(op.issue, func() {
			sent := src.Now()
			net.Send(op.src, op.dst, sent+la+op.extra, func() {
				logs[op.dst] = append(logs[op.dst], fuzzDelivery{
					At: dst.Now(), Sent: sent, Src: op.src, Op: i,
				})
			})
		})
	}
	return logs, drain()
}

// FuzzEnvelopeMergeOrder is the determinism fuzz harness: for arbitrary
// shard counts, send/deliver times and adaptive caps, the serial reference,
// the fixed-window group and the adaptively-widened group — with one engine
// per endpoint and with adjacent endpoints sharing an engine — must produce
// the identical delivery streams, and every same-(destination, cycle) collision
// must apply in the canonical (deliver, send, src, seq) order.
func FuzzEnvelopeMergeOrder(f *testing.F) {
	// Seeds: minimal, two-shard ping-pong, a collision-heavy burst, four
	// shards under the default cap, and a long mixed scenario. The checked-in
	// corpus under testdata/fuzz mirrors these.
	f.Add([]byte("\x00\x00"))
	f.Add([]byte("\x00\x01AB\x05\x00BA\x05\x00"))
	f.Add([]byte("\x02\x03" + "AB\x00\x07" + "BA\x00\x07" + "CA\x00\x07" + "AC\x01\x07"))
	f.Add([]byte("\x02\x04ABxyBCloCDhiDAjkACmnBDqr"))
	f.Add([]byte("\x01\x02" + "AB\x3c\x00" + "BA\x01\x3c" + "AB\x02\x3c" + "BA\x3c\x01" + "AB\x10\x10" + "BA\x20\x20"))
	// Four shards, ping-pong inside both adjacent pairs plus cross-pair
	// traffic: under the co-located leg each pair shares an engine, so this
	// drives same-engine spool inserts and window merges at once.
	f.Add([]byte("\x02\x01" + "\x00\x01\x05\x00" + "\x01\x00\x05\x00" + "\x02\x03\x05\x00" + "\x03\x02\x05\x00" + "\x00\x02\x00\x07" + "\x02\x00\x00\x07"))

	const la = Time(61)
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeFuzzScenario(data, la)
		if sc == nil {
			return
		}

		// Serial reference: every shard aliases one engine.
		se := NewEngine()
		sEngs := make([]*Engine, sc.shards)
		for i := range sEngs {
			sEngs[i] = se
		}
		wantLogs, wantEnd := runFuzzScenario(sc, la, sEngs, NewSerialNet(se), se.Run)

		// Sharded, fixed windows and the fuzzed adaptive cap: both must match
		// the serial stream exactly.
		for _, cap := range []int{1, sc.cap} {
			engs := make([]*Engine, sc.shards)
			for i := range engs {
				engs[i] = NewEngine()
			}
			g := NewGroup(la, nil, engs...)
			g.SetAdaptive(cap)
			gotLogs, gotEnd := runFuzzScenario(sc, la, engs, g, g.Run)
			if gotEnd != wantEnd {
				t.Fatalf("cap %d: final time %d, serial %d", cap, gotEnd, wantEnd)
			}
			if !reflect.DeepEqual(gotLogs, wantLogs) {
				t.Fatalf("cap %d: delivery streams diverge from serial:\nserial:  %v\nsharded: %v", cap, wantLogs, gotLogs)
			}
			for i, e := range engs {
				if len(sc.ops) > 0 && e.Now() != gotEnd {
					t.Fatalf("cap %d: shard %d clock %d not aligned to %d", cap, i, e.Now(), gotEnd)
				}
			}
		}

		// Co-located endpoints: adjacent endpoints share one engine, the way
		// the nodes of one FPGA share its shard. Sends inside a pair bypass
		// the windows (straight into the engine's spool) while sends across
		// pairs ride them, and both must reproduce the serial stream.
		for _, cap := range []int{1, sc.cap} {
			engs := make([]*Engine, sc.shards)
			pairs := make([]*Engine, (sc.shards+1)/2)
			epEngine := make([]int, sc.shards)
			for i := range pairs {
				pairs[i] = NewEngine()
			}
			for j := range engs {
				engs[j], epEngine[j] = pairs[j/2], j/2
			}
			g := NewGroup(la, epEngine, pairs...)
			g.SetAdaptive(cap)
			gotLogs, gotEnd := runFuzzScenario(sc, la, engs, g, g.Run)
			if gotEnd != wantEnd {
				t.Fatalf("paired cap %d: final time %d, serial %d", cap, gotEnd, wantEnd)
			}
			if !reflect.DeepEqual(gotLogs, wantLogs) {
				t.Fatalf("paired cap %d: delivery streams diverge from serial:\nserial:  %v\nsharded: %v", cap, wantLogs, gotLogs)
			}
		}

		// Canonical order within every (destination, cycle) collision: sorted
		// by (send time, source, per-source issue order). The per-source op
		// index is a monotone image of the sequence number, so checking it
		// checks the seq tie-break.
		for dst, log := range wantLogs {
			for i := 1; i < len(log); i++ {
				a, b := log[i-1], log[i]
				if b.At < a.At {
					t.Fatalf("dst %d: deliveries ran backwards in time: %+v then %+v", dst, a, b)
				}
				if b.At != a.At {
					continue
				}
				if b.Sent < a.Sent ||
					(b.Sent == a.Sent && b.Src < a.Src) ||
					(b.Sent == a.Sent && b.Src == a.Src && b.Op < a.Op) {
					t.Fatalf("dst %d cycle %d: non-canonical merge order: %+v before %+v", dst, a.At, a, b)
				}
			}
		}
	})
}

// TestFuzzSeedsDecode sanity-checks the decoder on the seed corpus shapes:
// ops are generated, stay in range and respect the latency floor.
func TestFuzzSeedsDecode(t *testing.T) {
	const la = Time(61)
	sc := decodeFuzzScenario([]byte("\x02\x04ABxyBCloCDhiDAjkACmnBDqr"), la)
	if sc == nil || sc.shards != 4 || sc.cap != DefaultAdaptiveCap {
		t.Fatalf("decoded %+v", sc)
	}
	if len(sc.ops) == 0 {
		t.Fatal("no ops decoded")
	}
	for _, op := range sc.ops {
		if op.src == op.dst || op.src >= sc.shards || op.dst >= sc.shards {
			t.Fatalf("bad op %+v", op)
		}
		if op.extra >= la {
			t.Fatalf("extra %d reaches lookahead %d; collisions would be illegal sends", op.extra, la)
		}
	}
	if decodeFuzzScenario([]byte{1}, la) != nil {
		t.Fatal("short input should decode to nil")
	}
	_ = fmt.Sprint(sc)
}
