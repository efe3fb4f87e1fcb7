package main

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obsv"
	"repro/internal/runtime"
	"repro/internal/tokenring"
	"repro/internal/transport"
)

// sink keeps the compiler from discarding the timed calls' results.
var sink uint64

// loopReader replays one buffer forever, so a FrameReader can be timed
// without a socket.
type loopReader struct {
	buf []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.buf[r.off:])
	r.off = (r.off + n) % len(r.buf)
	return n, nil
}

// microTiming is one layer function timed in isolation.
type microTiming struct {
	metric string // per-layer metric name
	nsOp   float64
}

// microTimings times the codec, checksum, core, hw and obsv functions in
// isolation on inputs drawn from seed: 31 batches of 8192 calls each,
// reporting the median batch's ns per call. Each batch is also recorded
// as a span on rec.
func microTimings(seed int64, rec *recorder) []microTiming {
	const nPhases = 8
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6d6963726f))
	var (
		msgs     [256]runtime.Message
		ups      [256]runtime.UpMessage
		statePay [256][]byte
		upPay    [256][]byte
		cps      [256][2]core.CP
		phs      [256][2]int
		vals     [256]float64
		frames   []byte
	)
	for i := range msgs {
		msgs[i] = runtime.Message{SN: tokenring.SN(rng.IntN(66)), CP: core.CP(rng.IntN(core.NumCP)), PH: rng.IntN(nPhases)}
		msgs[i].Sum = msgs[i].Checksum()
		ups[i] = runtime.UpMessage{Child: rng.IntN(32), SN: tokenring.SN(rng.IntN(66)), CP: core.CP(rng.IntN(core.NumCP)),
			PH: rng.IntN(nPhases), AckSN: tokenring.SN(rng.IntN(66)), AckCP: core.CP(rng.IntN(core.NumCP)), AckPH: rng.IntN(nPhases)}
		ups[i].Sum = ups[i].Checksum()
		f := transport.AppendState(nil, 0, msgs[i])
		statePay[i] = f[4 : len(f)-4]
		frames = append(frames, f...)
		u := transport.AppendUp(nil, 0, ups[i])
		upPay[i] = u[4 : len(u)-4]
		cps[i] = [2]core.CP{core.CP(rng.IntN(core.NumCP)), core.CP(rng.IntN(core.NumCP))}
		phs[i] = [2]int{rng.IntN(nPhases), rng.IntN(nPhases)}
		vals[i] = rng.ExpFloat64() * 1e-4
	}
	tables := hw.Compile()
	hist := obsv.NewHistogram("perfbench_observe", "", obsv.ExpBuckets(1e-6, 2, 24))
	fr := transport.NewFrameReader(&loopReader{buf: bytes.Clone(frames)}, 4096)
	buf := make([]byte, 0, 64)

	fns := []struct {
		metric string
		fn     func(n int)
	}{
		{"codec.append_state_ns", func(n int) {
			for i := 0; i < n; i++ {
				buf = transport.AppendState(buf[:0], 0, msgs[i&255])
			}
			sink += uint64(len(buf))
		}},
		{"codec.decode_state_ns", func(n int) {
			var s uint64
			for i := 0; i < n; i++ {
				_, m, _ := transport.DecodeState(statePay[i&255])
				s += uint64(m.Sum)
			}
			sink += s
		}},
		{"codec.append_up_ns", func(n int) {
			for i := 0; i < n; i++ {
				buf = transport.AppendUp(buf[:0], 0, ups[i&255])
			}
			sink += uint64(len(buf))
		}},
		{"codec.decode_up_ns", func(n int) {
			var s uint64
			for i := 0; i < n; i++ {
				_, m, _ := transport.DecodeUp(upPay[i&255])
				s += uint64(m.Sum)
			}
			sink += s
		}},
		{"codec.read_frame_ns", func(n int) {
			var s uint64
			for i := 0; i < n; i++ {
				_, p, _ := fr.Read()
				s += uint64(len(p))
			}
			sink += s
		}},
		{"runtime.checksum_ns", func(n int) {
			var s uint64
			for i := 0; i < n; i++ {
				s += uint64(msgs[i&255].Checksum())
			}
			sink += s
		}},
		{"core.leader_update_ns", func(n int) {
			var s uint64
			for i := 0; i < n; i++ {
				c, p := cps[i&255], phs[i&255]
				cp, ph, _ := core.LeaderUpdate(c[0], p[0], c[1], p[1], nPhases)
				s += uint64(cp) + uint64(ph)
			}
			sink += s
		}},
		{"core.follower_update_ns", func(n int) {
			var s uint64
			for i := 0; i < n; i++ {
				c, p := cps[i&255], phs[i&255]
				cp, ph, _ := core.FollowerUpdate(c[0], p[0], c[1], p[1])
				s += uint64(cp) + uint64(ph)
			}
			sink += s
		}},
		{"hw.leader_step_ns", func(n int) {
			var s uint64
			for i := 0; i < n; i++ {
				c, p := cps[i&255], phs[i&255]
				cp, ph, _ := tables.LeaderStep(c[0], p[0], c[1], p[1], nPhases)
				s += uint64(cp) + uint64(ph)
			}
			sink += s
		}},
		{"hw.follower_step_ns", func(n int) {
			var s uint64
			for i := 0; i < n; i++ {
				c, p := cps[i&255], phs[i&255]
				cp, ph, _ := tables.FollowerStep(c[0], p[0], c[1], p[1], nPhases)
				s += uint64(cp) + uint64(ph)
			}
			sink += s
		}},
		{"obsv.observe_ns", func(n int) {
			for i := 0; i < n; i++ {
				hist.Observe(vals[i&255])
			}
		}},
	}

	const batches, per = 31, 8192
	out := make([]microTiming, 0, len(fns))
	perBatch := make([]float64, batches)
	for _, f := range fns {
		f.fn(per) // warm caches and branch predictors
		for b := range perBatch {
			t0 := now()
			f.fn(per)
			t1 := now()
			perBatch[b] = float64(t1-t0) / per
			rec.put(span{name: spMicro, id: rec.next(), start: t0, end: t1, label: f.metric})
		}
		out = append(out, microTiming{f.metric, median(perBatch)})
	}
	return out
}

// iqm returns the interquartile mean of xs: the mean of what remains
// after the lowest and the highest quarter are dropped (all of xs when
// fewer than four). 0 when empty.
func iqm(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	k := len(s) / 4
	s = s[k : len(s)-k]
	if len(s) == 0 {
		return 0
	}
	var t float64
	for _, x := range s {
		t += x
	}
	return t / float64(len(s))
}

// quartile returns the q-quantile of xs, interpolated between the two
// nearest ranks (q = 0.25 is the lower quartile); 0 when empty.
func quartile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// median returns the median of xs (which it sorts); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
