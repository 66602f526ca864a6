package sim

import (
	"fmt"
	"math/bits"

	"cliffedge/internal/netem"
)

// Rand is the kernel's counter-based latency stream: a splitmix64
// generator keyed per draw on the transmission coordinates, exactly like
// internal/netem's verdict stream. The kernel keys a fresh Rand on (seed,
// from, to, sendTime, nonce) for every draw, so a draw is a pure function
// of *what* is being delayed, never of how many draws happened before it
// — the property that lets the sharded kernel replay the sequential
// kernel's delays bit for bit regardless of the order in which shards
// reach their send sites.
type Rand struct{ s uint64 }

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// keyedRand keys a stream on the draw coordinates. The chained mixing
// rounds decorrelate adjacent times, node pairs and same-tick bursts,
// mirroring netem's rngFor.
func keyedRand(seed uint64, from, to int32, t int64, nonce uint64) Rand {
	x := seed
	x = splitmix64(x ^ uint64(uint32(from)))
	x = splitmix64(x ^ uint64(uint32(to)))
	x = splitmix64(x ^ uint64(t))
	x = splitmix64(x ^ nonce)
	return Rand{s: x}
}

// Uint64 advances the stream.
func (r *Rand) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	x := r.s
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Int63n draws uniformly from [0, n). n must be positive. The
// multiply-shift reduction's modulo bias over 64 bits is far below
// anything a simulation could observe.
func (r *Rand) Int63n(n int64) int64 {
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int64(hi)
}

// Uniform is a latency band: every message (or failure detection) is
// delayed uniformly in [Min, Max] virtual ticks. Channels are
// asynchronous but reliable (§2.2), so latencies are finite, and Config
// accepts only bands with 1 ≤ Min ≤ Max ≤ netem.MaxTick: every draw is at
// least one tick, which is the sharded kernel's lookahead. The zero
// Uniform in a Config stands for the default band [1, 10].
type Uniform struct{ Min, Max int64 }

// defaultLatency is the band a zero Uniform in a Config stands for.
var defaultLatency = Uniform{Min: 1, Max: 10}

// draw delays one message or detection by a value of the band, taken
// from rng.
func (u Uniform) draw(rng Rand) int64 {
	if u.Max == u.Min {
		return u.Min
	}
	return u.Min + rng.Int63n(u.Max-u.Min+1)
}

// check reports why u is not a band a run can use, or nil.
func (u Uniform) check(name string) error {
	if u.Min < 1 || u.Max < u.Min || u.Max > netem.MaxTick {
		return fmt.Errorf("sim: Config.%s band [%d, %d] breaks 1 ≤ Min ≤ Max ≤ %d",
			name, u.Min, u.Max, netem.MaxTick)
	}
	return nil
}
