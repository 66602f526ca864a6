package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"cliffedge/internal/check"
	"cliffedge/internal/scenario"
	"cliffedge/internal/sim"
	"cliffedge/internal/trace"
)

// kernelSpec is the cascade of BENCH_kernel.json at side n: an n/4 block
// crashes at once, then 8 neighbours one by one, 25 ticks apart.
func kernelSpec(n int, seed int64) scenario.Spec {
	return scenario.CascadeSpec(n, n, n/4, 8, 25, seed)
}

// kernelRun is one sim run and what it cost.
type kernelRun struct {
	newRunner, wall time.Duration
	stats           trace.Stats
	decisions       int
	endTime         int64
	allocs, bytes   uint64
}

// answer is what must repeat exactly across repetitions and shard counts.
func (k kernelRun) answer() string {
	return fmt.Sprintf("msgs=%d bytes=%d decisions=%d end=%d", k.stats.Messages, k.stats.Bytes, k.decisions, k.endTime)
}

// runKernel builds a runner for spec and runs it once. observer may be
// nil, as it is in every measured run.
func runKernel(spec scenario.Spec, shards int, observer func(trace.Event), tr *tracer, op int) (kernelRun, error) {
	var k kernelRun
	root := tr.begin("operation", "bench", op, -1)
	defer tr.end(root)
	sp := tr.begin("sim.NewRunner", "sim", op, root)
	start := time.Now()
	r, err := sim.NewRunner(sim.Config{
		Graph: spec.Graph, Factory: scenario.CoreFactory(spec.Graph), Seed: spec.Seed,
		Crashes: spec.Crashes, Shards: shards, DiscardEvents: true, Observer: observer,
	})
	k.newRunner = time.Since(start)
	tr.end(sp)
	if err != nil {
		return k, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sp = tr.begin("Runner.Run", "sim", op, root)
	start = time.Now()
	res, err := r.Run()
	k.wall = time.Since(start)
	tr.end(sp)
	if err != nil {
		return k, err
	}
	runtime.ReadMemStats(&after)
	k.stats, k.decisions, k.endTime = res.Stats, len(res.Decisions), res.EndTime
	k.allocs, k.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	return k, nil
}

// kernelWorkload is kernel_cascade96.
type kernelWorkload struct {
	sz   sizes
	seed int64
	spec scenario.Spec
}

func (w *kernelWorkload) setup() error {
	w.spec = kernelSpec(w.sz.kernelN, w.seed)
	if _, err := sim.NewRunner(sim.Config{Graph: w.spec.Graph, Factory: scenario.CoreFactory(w.spec.Graph),
		Seed: w.seed, Crashes: w.spec.Crashes, Shards: 1, DiscardEvents: true}); err != nil {
		return err
	}
	_, err := runKernel(kernelSpec(w.sz.kernelWarmN, w.seed), 1, nil, nil, 0)
	return err
}

func (w *kernelWorkload) teardown()        {}
func (w *kernelWorkload) reference() error { return nil }

func (w *kernelWorkload) measure(budget time.Duration, out *ledger) (counts, error) {
	var c counts
	var first string
	reps, err := repeat(w.sz.repetitions(budget), func() (time.Duration, error) {
		k, err := runKernel(w.spec, 1, nil, nil, 0)
		c.attempted++
		if err != nil {
			c.failed++
			return 0, err
		}
		if first == "" {
			first = k.answer()
		} else if k.answer() != first {
			c.failed++
			return 0, fmt.Errorf("repetition %d answered %s, the first %s", c.attempted, k.answer(), first)
		}
		return k.wall, nil
	})
	if err != nil {
		return c, err
	}
	info("%s; Run() %.3f s, fastest %.3f", first, reps, slices.Min(reps))
	out.set("wall_s", median(reps))
	return c, nil
}

// traced produces the sim and trace rows of the ledger, and runs the
// correctness gates that would inflate the measured process's RSS.
func (w *kernelWorkload) traced(tr *tracer, out *ledger) (counts, error) {
	c := counts{attempted: 1}
	plain, err := runKernel(w.spec, 1, nil, nil, 0)
	if err != nil {
		return c, err
	}
	spanned, err := runKernel(w.spec, 1, nil, tr, 1)
	if err != nil {
		return c, err
	}
	out.set("spans.overhead_ratio", seconds(spanned.wall)/seconds(plain.wall))
	msgs := float64(plain.stats.Messages)
	out.set("sim.msgs", msgs)
	out.set("sim.bytes_per_msg", float64(plain.stats.Bytes)/msgs)
	out.set("sim.allocs_per_run", float64(plain.allocs))
	out.set("sim.alloc_mb_per_run", float64(plain.bytes)/(1<<20))
	out.set("sim.ns_per_msg", float64(plain.wall.Nanoseconds())/msgs)
	out.set("sim.new_runner_ms", millis(plain.newRunner))

	small := kernelSpec(w.sz.kernelSmallN, w.seed)
	k64, err := runKernel(small, 1, nil, nil, 0)
	if err != nil {
		return c, err
	}
	ns64 := float64(k64.wall.Nanoseconds()) / float64(k64.stats.Messages)
	out.set("sim.ns_per_msg_64", ns64)
	out.set("sim.scale_ratio_96_64", float64(plain.wall.Nanoseconds())/msgs/ns64)

	sharded, err := runKernel(w.spec, 2, nil, nil, 0)
	if err != nil {
		return c, err
	}
	out.set("sim.shards2_ratio", seconds(sharded.wall)/seconds(plain.wall))
	online := check.NewOnline(w.spec.Graph)
	checked, err := runKernel(w.spec, 2, online.Observe, nil, 0)
	if err != nil {
		return c, err
	}
	for _, k := range []kernelRun{spanned, sharded, checked} {
		if k.answer() != plain.answer() {
			c.failed = 1
			return c, fmt.Errorf("answers differ across repetitions or shard counts: %s vs %s", k.answer(), plain.answer())
		}
	}
	if rep := online.Report(); !rep.Ok() {
		c.failed = 1
		return c, fmt.Errorf("checker at Shards 2: %s", rep)
	}

	// Tracing on: the binary encoder on the observer stream, as
	// WithTraceWriter mounts it, into a writer that only counts.
	var sink countingWriter
	var captured []trace.Event
	bw := trace.NewBinaryWriter(&sink)
	events := 0
	k64t, err := runKernel(small, 1, func(e trace.Event) {
		bw.Write(e) // the sticky error surfaces at Flush
		if events++; len(captured) < 200_000 {
			captured = append(captured, e)
		}
	}, nil, 0)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return c, err
	}
	out.set("trace.binary_ratio", seconds(k64t.wall)/seconds(k64.wall))
	out.set("trace.bytes_per_event", float64(sink.n)/float64(events))
	enc := trace.NewBinaryWriter(io.Discard)
	start := time.Now()
	for _, e := range captured {
		enc.Write(e)
	}
	if err := enc.Flush(); err != nil {
		return c, err
	}
	out.set("trace.encode_ns_per_event", float64(time.Since(start).Nanoseconds())/float64(len(captured)))
	return c, nil
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
