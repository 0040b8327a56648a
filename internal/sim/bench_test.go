package sim

import "testing"

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i%16), func() {})
		if i%1024 == 0 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkProcessContextSwitch(b *testing.B) {
	e := NewEngine()
	Go(e, "bench", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Wait(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkStatsCounter(b *testing.B) {
	var s Stats
	c := s.Counter("bench.counter")
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkEngineWheelMix runs the measured shape of simulator traffic: a
// steady population of 76 pending events (the serial numa48 average), each
// rescheduling itself with a delay drawn from the measured mix — about 40%
// one cycle, the rest 2–128 cycles, and 0.1% far events past the wheel.
// One op is one executed event.
func BenchmarkEngineWheelMix(b *testing.B) {
	e := NewEngine()
	rng := NewRNG(1)
	delays := make([]Time, 4096)
	for i := range delays {
		switch r := rng.Intn(1000); {
		case r < 1:
			delays[i] = wheelSize + Time(rng.Intn(768))
		case r < 400:
			delays[i] = 1
		default:
			delays[i] = 2 + Time(rng.Intn(127))
		}
	}
	left, k := b.N, 0
	var fn func(any)
	fn = func(any) {
		if left <= 0 {
			return
		}
		left--
		k++
		e.ScheduleArg(delays[k&(len(delays)-1)], fn, nil)
	}
	for i := 0; i < 76; i++ {
		e.ScheduleArg(delays[i], fn, nil)
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkSerialNetSendFlush measures one cross-endpoint delivery through
// the serial spool: 8 sends per cycle over 4 endpoints, delivered 40–47
// cycles later, so each destination keeps a pipeline of about 90 parked
// envelopes. One op is one Send plus its share of the flush events.
func BenchmarkSerialNetSendFlush(b *testing.B) {
	eng := NewEngine()
	net := NewSerialNet(eng)
	fn := func() {}
	for i := 0; i < b.N; i++ {
		net.Send(i&3, (i+1)&3, eng.Now()+40+Time(i&7), fn)
		if i&7 == 7 {
			eng.RunFor(1)
		}
	}
	eng.Run()
}
