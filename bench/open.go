package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cliffedge"
)

// openLoop sends operations on a fixed schedule whether or not earlier
// ones have finished (independent users, not callers waiting for
// replies), with at most `slots` in flight: an operation due while every
// slot is busy waits for one, and the wait counts — every latency is
// timed from the due time, so a stall delays and lengthens the operations
// behind it instead of silently thinning the load. The clock and the
// goroutine launch are fields so the tests can drive it with a fake clock.
type openLoop struct {
	now   func() time.Time
	sleep func(time.Duration)
	spawn func(func())
}

var realLoop = openLoop{now: time.Now, sleep: time.Sleep, spawn: func(f func()) { go f() }}

// sample is one operation of an open loop.
type sample struct {
	due   time.Time // when the schedule wanted it sent
	woke  time.Time // when the generator was ready to send it
	slept bool      // the generator had to wait for due (no backlog before it)
	first time.Time // first result event
	end   time.Time // report body read
	err   error
}

func (s sample) latency() time.Duration { return s.end.Sub(s.due) }

// run issues up to n operations, interval apart, and returns when all
// have finished. A closed until stops the schedule early.
func (l openLoop) run(n int, interval time.Duration, slots int, until <-chan struct{}, op func(i int) (first, end time.Time, err error)) []sample {
	samples := make([]sample, 0, n)
	sem := make(chan struct{}, slots)
	var wg sync.WaitGroup
	start := l.now()
schedule:
	for i := 0; i < n; i++ {
		select {
		case <-until:
			break schedule
		default:
		}
		samples = append(samples, sample{due: start.Add(time.Duration(i) * interval)})
		s := &samples[i]
		if d := s.due.Sub(l.now()); d > 0 {
			l.sleep(d)
			s.slept = true
		}
		s.woke = l.now()
		sem <- struct{}{}
		wg.Add(1)
		l.spawn(func() {
			defer wg.Done()
			s.first, s.end, s.err = op(i)
			<-sem
		})
	}
	wg.Wait()
	return samples
}

// openSpec is the small campaign of serve_open: ring+grid x quiescent x
// 8 seeds = 16 jobs, a fresh seed window per campaign.
func openSpec(seed int64, i int) cliffedge.CampaignSpec {
	return cliffedge.CampaignSpec{Topologies: []string{"ring", "grid"}, Regimes: []string{"quiescent"},
		Engines: []string{"sim"}, SeedStart: seed + 8*int64(i), Seeds: 8, Repeats: 1}
}

const openJobs = 16

type openWorkload struct {
	sz   sizes
	seed int64
	work string
	e    *env
	next int // campaigns issued so far: every campaign of a run has its own seeds
}

// campaign is one serve_open operation.
func (w *openWorkload) campaign(i int, tr *tracer) (first, end time.Time, err error) {
	r, err := w.e.sweep(openSpec(w.seed, i), fmt.Sprintf("client-%d", i%4), tr, i)
	if err == nil {
		err = checkReport(r.report, openJobs, nil)
	}
	return r.first, r.reported, err
}

func (w *openWorkload) setup() error {
	var err error
	if w.e, err = startServe(w.work, nproc); err != nil {
		return err
	}
	// Warm-up: a closed loop of nproc clients.
	var firstErr error
	for _, s := range realLoop.run(w.sz.openWarm, 0, nproc, nil, func(i int) (time.Time, time.Time, error) {
		return w.campaign(i, nil)
	}) {
		firstErr = errors.Join(firstErr, s.err)
	}
	w.next = w.sz.openWarm
	return firstErr
}

func (w *openWorkload) teardown()        { w.e.close() }
func (w *openWorkload) reference() error { return nil }

// openStats summarises one schedule.
type openStats struct {
	n, failed, slow int // failed includes slow: right answers that took over the per-campaign limit
	wall            time.Duration
	lat, ttfe, late []float64 // ms
	backlog         bool
	firstErr        error
}

// schedule runs n campaigns through the open loop and folds the samples.
func (w *openWorkload) schedule(n int, until <-chan struct{}, tr *tracer) openStats {
	base := w.next
	w.next += n
	samples := realLoop.run(n, w.sz.openInterval, nproc, until, func(i int) (time.Time, time.Time, error) {
		return w.campaign(base+i, tr)
	})
	st := openStats{n: len(samples)}
	if st.n == 0 {
		return st
	}
	last := samples[0].end
	for _, s := range samples {
		if s.err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = s.err
			}
			continue
		}
		if s.latency() > w.sz.openLimit {
			st.slow++
			st.failed++
		}
		st.lat = append(st.lat, millis(s.latency()))
		st.ttfe = append(st.ttfe, millis(s.first.Sub(s.due)))
		if s.slept {
			st.late = append(st.late, millis(s.woke.Sub(s.due)))
		}
		if s.end.After(last) {
			last = s.end
		}
	}
	st.wall = last.Sub(samples[0].due)
	st.backlog = samples[st.n-1].woke.Sub(samples[st.n-1].due) > w.sz.openInterval
	return st
}

const (
	// lateLimitMs: a generator later than this at p95 was starved, and the
	// schedule measured the benchmark (or a stalled machine), not the
	// server: the run is invalid, not slow.
	lateLimitMs = 5.0
	// p95LimitMs is serve_open's latency limit at 20 campaigns a second,
	// to be met with no backlog at the end of the schedule.
	p95LimitMs = 100.0
)

func (st openStats) lateP95() float64 {
	if len(st.late) == 0 {
		return 0
	}
	return percentile(st.late, 95)
}

// starved says the generator did not keep its schedule, so the latencies
// say nothing about the server.
func (st openStats) starved() bool { return st.lateP95() > lateLimitMs }

// verdict turns a schedule into the workload's pass/fail. Wrong or
// refused campaigns always fail the run. strict (the full-size schedules
// on an otherwise idle server) adds the workload's limit: enough samples
// for the p95, p95 latency within the limit and no backlog. A starved
// schedule is not judged against the limit: it is reported as invalid
// (describe), and the run stays correct, because every answer was.
func (st openStats) verdict(strict bool) error {
	if st.firstErr != nil {
		return fmt.Errorf("%d of %d campaigns failed, first: %w", st.failed-st.slow, st.n, st.firstErr)
	}
	if !strict || st.starved() {
		return nil
	}
	if highestSupported(len(st.lat)) < 95 {
		return fmt.Errorf("%d samples do not support a p95", len(st.lat))
	}
	if p95 := percentile(st.lat, 95); p95 > p95LimitMs || st.backlog {
		return fmt.Errorf("latency limit missed: p95 %.1f ms (limit %.0f ms), backlog at the end %v", p95, p95LimitMs, st.backlog)
	}
	return nil
}

// describe is the context line of a schedule. alone says nothing else
// ran on the server, so a late generator means a starved benchmark;
// beside a sweep it shares two busy cores and is late by design.
func (st openStats) describe(limit time.Duration, alone bool) string {
	if len(st.lat) == 0 {
		return "no samples"
	}
	invalid := ""
	if alone && st.starved() {
		invalid = fmt.Sprintf("INVALID, the generator was starved (late p95 over %.0f ms): ", lateLimitMs)
	}
	return invalid + fmt.Sprintf("campaigns %d, errored %d, over %v %d, lat p50 %.2f ms p95 %.2f ms, ttfe p50 %.2f ms, generator late p95 %.3f ms, backlog at end %v",
		st.n, st.failed-st.slow, limit, st.slow, percentile(st.lat, 50), percentile(st.lat, 95), percentile(st.ttfe, 50), st.lateP95(), st.backlog)
}

// latencies sets the user-latency rows from a schedule.
func (st openStats) latencies(out *ledger) {
	out.set("lat_p50_ms", percentile(st.lat, 50))
	out.set("lat_p95_ms", percentile(st.lat, 95))
	out.set("ttfe_p50_ms", percentile(st.ttfe, 50))
	out.set("load.late_p95_ms", st.lateP95())
}

func (w *openWorkload) measure(budget time.Duration, out *ledger) (counts, error) {
	n := max(int(budget/w.sz.openInterval), w.sz.minReps)
	st := w.schedule(n, nil, nil)
	info("%s", st.describe(w.sz.openLimit, true))
	c := counts{attempted: st.n, failed: st.failed}
	if len(st.lat) == 0 {
		return c, st.verdict(!w.sz.smoke)
	}
	// The latencies are per-layer metrics (the result line of an untraced
	// run carries the end-to-end ones only) but this schedule is the long
	// untraced one, so they are printed from it.
	lat := newLedger(perLayer)
	st.latencies(lat)
	lat.print()
	out.set("wall_s", seconds(st.wall))
	return c, st.verdict(!w.sz.smoke)
}

func (w *openWorkload) traced(tr *tracer, out *ledger) (counts, error) {
	plain := w.schedule(w.sz.tracedPlain, nil, nil)
	info("untraced: %s", plain.describe(w.sz.openLimit, true))
	c := counts{attempted: plain.n, failed: plain.failed}
	if err := plain.verdict(!w.sz.smoke); err != nil {
		return c, err
	}
	plain.latencies(out)

	firstSpan := tr.count()
	spanned := w.schedule(w.sz.tracedOpen, nil, tr)
	info("traced: %s", spanned.describe(w.sz.openLimit, true))
	c.attempted += spanned.n
	c.failed += spanned.failed
	if err := spanned.verdict(false); err != nil {
		return c, err
	}
	out.set("spans.overhead_ratio", percentile(spanned.lat, 50)/percentile(plain.lat, 50))
	byName := make(map[string][]float64)
	for _, s := range tr.snapshot()[firstSpan:] {
		byName[s.Name] = append(byName[s.Name], millis(s.End-s.Start))
	}
	out.set("serve.submit_ms_p50", median(byName["http.submit"]))
	out.set("serve.report_get_ms", median(byName["http.report"]))

	// Saturation: a closed loop of nproc clients for a fixed time.
	ctx, cancel := context.WithTimeout(context.Background(), w.sz.satFor)
	start := time.Now()
	sat := realLoop.run(w.sz.contendedMax*10, 0, nproc, ctx.Done(), func(i int) (time.Time, time.Time, error) {
		return w.campaign(w.next+i, nil)
	})
	cancel()
	w.next += len(sat)
	for _, s := range sat {
		if s.err != nil {
			return c, fmt.Errorf("saturation loop: %w", s.err)
		}
	}
	out.set("serve.sat_rate", float64(len(sat))/seconds(time.Since(start)))

	// Fair share: the same schedule beside one big mixed sweep.
	bigDone := make(chan struct{})
	var bigErr error
	go func() {
		defer close(bigDone)
		big := mixedSpec(w.seed, w.sz.contendedSeeds)
		r, err := w.e.sweep(big, "big", nil, 0)
		if err == nil {
			err = checkReport(r.report, gridSize(big), nil)
		}
		bigErr = err
	}()
	contended := w.schedule(w.sz.contendedMax, bigDone, nil)
	<-bigDone
	info("beside a mixed sweep: %s", contended.describe(w.sz.openLimit, false))
	if bigErr != nil {
		return c, fmt.Errorf("contending sweep: %w", bigErr)
	}
	if contended.firstErr != nil {
		return c, fmt.Errorf("beside a mixed sweep: %w", contended.firstErr)
	}
	if !w.sz.smoke && highestSupported(len(contended.lat)) < 90 {
		return c, fmt.Errorf("%d contended samples do not support a p90", len(contended.lat))
	}
	out.set("serve.contended_lat_p50_ms", percentile(contended.lat, 50))
	out.set("serve.contended_lat_p90_ms", percentile(contended.lat, 90))

	ms, err := probeCreate(w.work)
	if err != nil {
		return c, err
	}
	out.set("store.create_ms", ms)
	if ms, err = probeResume(w.work, cheapSpec(w.seed, w.sz.cheapSeeds)); err != nil {
		return c, err
	}
	out.set("serve.resume_ms", ms)
	return c, nil
}
