package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cliffedge"
	"cliffedge/internal/campaign"
	"cliffedge/internal/check"
	"cliffedge/internal/gen"
	"cliffedge/internal/graph"
	"cliffedge/internal/obs"
	"cliffedge/internal/region"
	"cliffedge/internal/serve"
	"cliffedge/internal/store"
)

func mixedSpec(seed int64, seeds int) cliffedge.CampaignSpec {
	return cliffedge.CampaignSpec{Topologies: gen.FamilyNames(), Regimes: gen.RegimeNames(),
		Engines: []string{"sim"}, SeedStart: seed, Seeds: seeds, Repeats: 1}
}

func cheapSpec(seed int64, seeds int) cliffedge.CampaignSpec {
	return cliffedge.CampaignSpec{Topologies: []string{"ring"}, Regimes: gen.RegimeNames(),
		Engines: []string{"sim"}, SeedStart: seed, Seeds: seeds, Repeats: 1}
}

func gridSize(s cliffedge.CampaignSpec) int {
	return len(s.Topologies) * len(s.Regimes) * len(s.Engines) * s.Seeds * s.Repeats
}

// sweepWorkload is sweep_mixed (one serve.Server, pool nproc) and
// fleet_cheap (a coordinator over nproc one-worker servers): the same
// POST -> SSE -> report.json operation against different systems.
type sweepWorkload struct {
	sz         sizes
	work       string
	spec, warm cliffedge.CampaignSpec
	fleet      bool
	fetched    *atomic.Int64 // traced fleet: /results bytes the coordinator read

	e       *env
	ref     []byte        // report.json of a direct Campaign.Run of spec
	refWall time.Duration // and how long that took
}

func newSweepWorkload(o options, spec, warm cliffedge.CampaignSpec, fleet bool) *sweepWorkload {
	w := &sweepWorkload{sz: o.sz, work: o.work, spec: spec, warm: warm, fleet: fleet}
	if fleet && o.trace {
		w.fetched = new(atomic.Int64)
	}
	return w
}

func (w *sweepWorkload) setup() error {
	var err error
	if w.fleet {
		var rt http.RoundTripper
		if w.fetched != nil {
			rt = countResults{w.fetched}
		}
		w.e, err = startFleet(w.work, nproc, rt)
	} else {
		w.e, err = startServe(w.work, nproc)
	}
	if err != nil {
		return err
	}
	r, err := w.e.sweep(w.warm, "warm", nil, 0)
	if err != nil {
		return err
	}
	return checkReport(r.report, gridSize(w.warm), nil)
}

func (w *sweepWorkload) teardown() { w.e.close() }

// reference runs the spec directly on a dedicated pool — no store, no
// HTTP — as the oracle every served report must equal byte for byte.
func (w *sweepWorkload) reference() error {
	camp, err := cliffedge.NewCampaignFromSpec(w.spec, cliffedge.WithWorkers(nproc))
	if err != nil {
		return err
	}
	runtime.GC()
	start := time.Now()
	rep, err := camp.Run(context.Background())
	w.refWall = time.Since(start)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return err
	}
	w.ref = buf.Bytes()
	return checkReport(w.ref, gridSize(w.spec), nil)
}

// one runs one operation — POST, SSE to done, GET report.json — and
// checks the report against the reference.
func (w *sweepWorkload) one(e *env, tr *tracer, op int) (sweepResult, error) {
	r, err := e.sweep(w.spec, "bench", tr, op)
	if err == nil {
		err = checkReport(r.report, gridSize(w.spec), w.ref)
	}
	return r, err
}

func (w *sweepWorkload) measure(budget time.Duration, out *ledger) (counts, error) {
	var c counts
	reps, err := repeat(w.sz.repetitions(budget), func() (time.Duration, error) {
		r, err := w.one(w.e, nil, 0)
		c.attempted++
		if err != nil {
			c.failed++
		}
		return r.wall(), err
	})
	if err != nil {
		return c, err
	}
	info("jobs %d, direct Campaign.Run %.3f s; POST -> report %.3f s, fastest %.3f", gridSize(w.spec), seconds(w.refWall), reps, slices.Min(reps))
	out.set("wall_s", median(reps))
	return c, nil
}

func (w *sweepWorkload) traced(tr *tracer, out *ledger) (counts, error) {
	c := counts{attempted: 2}
	fail := func(err error) (counts, error) { c.failed = 1; return c, err }
	before, err := w.scrape()
	if err != nil {
		return c, err
	}
	w.fetchedReset()
	runtime.GC()
	plain, err := w.one(w.e, nil, 0)
	if err != nil {
		return fail(err)
	}
	plainWall := plain.wall()
	after, err := w.scrape()
	if err != nil {
		return c, err
	}
	fetched := w.fetchedReset()
	runtime.GC()
	spanned, err := w.one(w.e, tr, 1)
	if err != nil {
		return fail(err)
	}
	out.set("spans.overhead_ratio", seconds(spanned.wall())/seconds(plainWall))
	if w.fleet {
		return c, w.tracedFleet(out, plainWall, before, after, fetched)
	}
	out.set("serve.sse_events", float64(plain.events))
	out.set("serve.overhead_ratio", seconds(plainWall)/seconds(w.refWall))
	out.set("serve.sweep_ttfe_ms", millis(plain.first.Sub(plain.started)))
	return c, w.tracedMixed(tr, out, plainWall)
}

// scrape reads the system's /metrics into a name -> value map.
func (w *sweepWorkload) scrape() (map[string]float64, error) {
	data, err := w.e.get("/metrics")
	if err != nil {
		return nil, err
	}
	return obs.ParseText(bytes.NewReader(data))
}

func (w *sweepWorkload) fetchedReset() int64 {
	if w.fetched == nil {
		return 0
	}
	return w.fetched.Swap(0)
}

// countResults is the coordinator's transport in a traced fleet run: it
// counts the bytes of every /results body the coordinator reads.
type countResults struct{ n *atomic.Int64 }

func (c countResults) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/results") {
		resp.Body = &countingBody{resp.Body, c.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// jobTimes runs fn over jobs on a pool of `workers` goroutines and
// returns each job's duration and the pool's wall time.
func jobTimes(jobs []campaign.Job, workers int, fn func(i int, j campaign.Job)) ([]time.Duration, time.Duration) {
	durs := make([]time.Duration, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				t := time.Now()
				fn(i, jobs[i])
				durs[i] = time.Since(t)
			}
		}()
	}
	wg.Wait()
	return durs, time.Since(start)
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tracedMixed fills the job-path rows: Campaign.RunJob timed per job, the
// replica of the job path built from public pieces with a span per
// layer, and the probes of the layers a mixed sweep leans on.
func (w *sweepWorkload) tracedMixed(tr *tracer, out *ledger, plainWall time.Duration) error {
	ctx := context.Background()
	camp, err := cliffedge.NewCampaignFromSpec(w.spec)
	if err != nil {
		return err
	}
	jobs := camp.Jobs()
	stats := make([]campaign.RunStats, len(jobs))
	durs, poolWall := jobTimes(jobs, nproc, func(i int, j campaign.Job) { stats[i] = camp.RunJob(ctx, j) })
	us := micros(durs)
	out.set("cliffedge.run_job_us_p50", percentile(us, 50))
	out.set("cliffedge.run_job_us_p95", percentile(us, 95))
	byName := make(map[string][]float64)
	runJobTotal := time.Duration(0)
	for i, j := range jobs {
		byName[j.Cell.Regime] = append(byName[j.Cell.Regime], us[i])
		byName[j.Cell.Topology] = append(byName[j.Cell.Topology], us[i])
		runJobTotal += durs[i]
	}
	for name, xs := range byName {
		out.set("cliffedge.job_us."+name, mean(xs))
	}
	out.set("campaign.pool_busy_share", seconds(runJobTotal)/(float64(nproc)*seconds(poolWall)))
	info("RunJob pool %.3f s, HTTP operation %.3f s", seconds(poolWall), seconds(plainWall))

	if err := w.replica(ctx, tr, jobs, runJobTotal, out); err != nil {
		return err
	}
	out.set("gen.draw_us_per_job", probeGen(jobs))
	addNs, repMs, err := probeAggregator(jobs, stats)
	if err != nil {
		return err
	}
	out.set("campaign.agg_add_ns", addNs)
	out.set("campaign.report_ms", repMs)
	return w.scraped(out, plainWall)
}

// replica runs every job of the grid through the same public pieces
// Campaign.RunJob and Sweep.Commit are made of, one span per piece, and
// turns the spans into each layer's share of the job path.
func (w *sweepWorkload) replica(ctx context.Context, tr *tracer, jobs []campaign.Job, runJobTotal time.Duration, out *ledger) error {
	st, err := store.Open(w.work)
	if err != nil {
		return err
	}
	if err := st.Create(store.Manifest{ID: "replica", Status: store.StatusRunning, Spec: []byte("{}")}); err != nil {
		return err
	}
	results, _, err := st.OpenResults("replica")
	if err != nil {
		return err
	}
	defer results.Close()
	agg := campaign.NewAggregator()
	var events atomic.Int64
	var jobErr atomic.Value
	firstSpan := tr.count()
	_, replicaWall := jobTimes(jobs, nproc, func(i int, j campaign.Job) {
		n, err := replicaJob(ctx, tr, 2+i, j, agg, results)
		events.Add(int64(n))
		if err != nil {
			jobErr.Store(err)
		}
	})
	if err, _ := jobErr.Load().(error); err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	info("replica sweep %.3f s", seconds(replicaWall))

	checkNs, reportMs, err := probeCheck(w.spec)
	if err != nil {
		return err
	}
	out.set("check.ns_per_event", checkNs)
	out.set("check.report_ms", reportMs)

	spans := tr.snapshot()
	self := layerSelf(spans, firstSpan)
	total := time.Duration(0)
	for _, s := range spans[firstSpan:] {
		if s.Parent < 0 {
			total += s.End - s.Start
		}
	}
	// The observer runs inside Cluster.Run; a span per event would cost
	// more than the event, so its share is events x the probed unit cost.
	observed := time.Duration(float64(events.Load()) * checkNs)
	self["sim"] -= observed
	self["check"] += observed
	out.set("spans.coverage", seconds(total)/seconds(runJobTotal))
	accounted := seconds(total-self["bench"]) / seconds(total)
	out.set("spans.accounted_share", accounted)
	if accounted < 0.9 {
		return fmt.Errorf("layer spans account for %.0f %% of the traced jobs' time, want 90 %%", 100*accounted)
	}
	for _, layer := range []string{"gen", "cliffedge", "sim", "check", "campaign", "store", "serve"} {
		out.set("spans.share."+layer, seconds(self[layer])/seconds(total))
	}
	return nil
}

// scraped runs one more operation with a 10 Hz /metrics scraper beside it.
func (w *sweepWorkload) scraped(out *ledger, plainWall time.Duration) error {
	var scrapes []float64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			t := time.Now()
			if _, err := w.e.get("/metrics"); err == nil {
				scrapes = append(scrapes, millis(time.Since(t)))
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	runtime.GC()
	scraped, err := w.one(w.e, nil, 0)
	close(stop)
	<-done
	if err != nil {
		return err
	}
	if len(scrapes) == 0 {
		return fmt.Errorf("no /metrics scrape succeeded beside the sweep")
	}
	out.set("obs.scrape_ms", median(scrapes))
	out.set("obs.scrape_ratio", seconds(scraped.wall())/seconds(plainWall))
	return nil
}

// replicaJob is Campaign.RunJob + Sweep.Commit rebuilt from their public
// pieces, so that each piece can carry a span. It returns the number of
// trace events the observer saw.
func replicaJob(ctx context.Context, tr *tracer, op int, job campaign.Job, agg *campaign.Aggregator, results *store.Results) (int, error) {
	root := tr.begin("job "+job.Cell.String(), "bench", op, -1)
	defer tr.end(root)

	sp := tr.begin("gen draw", "gen", op, root)
	fam, _ := gen.FamilyByName(job.Cell.Topology)
	reg, _ := gen.RegimeByName(job.Cell.Regime)
	rng := rand.New(rand.NewSource(job.Seed))
	topo, _ := fam.New(rng)
	waves := reg.Plan(rng, topo)
	netModel := reg.NetModel(rng)
	tr.end(sp)

	sp = tr.begin("cliffedge.New", "cliffedge", op, root)
	var online *check.Online
	if reg.Check != gen.CheckNone {
		online = check.NewOnline(topo)
	}
	events := 0
	lastCrash, maxLag := int64(-1), int64(-1)
	lats := &campaign.Hist{}
	opts := []cliffedge.Option{
		cliffedge.WithSeed(job.Seed), cliffedge.WithoutTraceBuffer(), cliffedge.WithEngine(cliffedge.Sim()),
		cliffedge.WithObserver(func(e cliffedge.Event) {
			events++
			if online != nil {
				online.Observe(e)
			}
			switch e.Kind {
			case cliffedge.EventCrash:
				lastCrash = e.Time
			case cliffedge.EventDecide:
				if lag := e.Time - lastCrash; lastCrash >= 0 && lag < gen.WaveSpacing {
					lats.Add(lag)
					maxLag = max(maxLag, lag)
				}
			}
		}),
	}
	if netModel != nil {
		opts = append(opts, cliffedge.WithNetModel(netModel))
	}
	cl, err := cliffedge.New(topo, opts...)
	if err != nil {
		return 0, err
	}
	plan := cliffedge.NewPlan()
	for _, wv := range waves {
		plan.At(wv.Time)
		plan.Crash(wv.Crash...)
		plan.Mark(wv.Mark...)
	}
	tr.end(sp)

	sp = tr.begin("Cluster.Run", "sim", op, root)
	res, err := cl.Run(ctx, plan)
	tr.end(sp)
	if err != nil {
		return events, err
	}

	sp = tr.begin("Online.Report", "check", op, root)
	violations := 0
	if online != nil {
		rep := online.Report()
		if reg.Check == gen.CheckSafety {
			rep = online.SafetyReport()
		}
		violations = len(rep.Violations)
	}
	tr.end(sp)

	sp = tr.begin("summarise", "cliffedge", op, root)
	crashed := graph.NewBitset(topo.Len())
	for n := range res.Crashed {
		crashed.Set(topo.Index(n))
	}
	domains := region.Domains(topo, crashed)
	border := 0
	for _, d := range domains {
		border += d.BorderLen()
	}
	stats := campaign.RunStats{
		Violations: violations, Nodes: topo.Len(), Crashed: len(res.Crashed), Border: border, Domains: len(domains),
		Decisions: len(res.Decisions), Messages: res.Stats.Messages, Deliveries: res.Stats.Deliveries,
		Bytes: res.Stats.Bytes, DecideLatency: maxLag, Lats: lats,
	}
	tr.end(sp)

	sp = tr.begin("Aggregator.Add", "campaign", op, root)
	agg.Add(job, stats)
	tr.end(sp)
	sp = tr.begin("Results.Append", "store", op, root)
	err = results.Append(store.Record{Cell: job.Cell, Seed: job.Seed, Attempt: job.Attempt, Stats: stats})
	tr.end(sp)
	if err != nil {
		return events, err
	}
	sp = tr.begin("WriteSSE", "serve", op, root)
	j := job
	err = serve.WriteSSE(io.Discard, serve.Event{Seq: int64(op), Type: "result", Job: &j,
		Decisions: stats.Decisions, Violations: violations, Completed: op, Total: op})
	tr.end(sp)
	return events, err
}

// tracedFleet fills the fleet, store and commit-path rows.
func (w *sweepWorkload) tracedFleet(out *ledger, fleetWall time.Duration, before, after map[string]float64, fetched int64) error {
	delta := func(name string) float64 { return after[name] - before[name] }
	merged, deduped := delta("cliffedge_fleet_records_merged_total"), delta("cliffedge_fleet_records_deduped_total")
	if int(merged) != gridSize(w.spec) {
		return fmt.Errorf("fleet merged %v records, the grid has %d", merged, gridSize(w.spec))
	}
	out.set("fleet.sync_batches", delta("cliffedge_fleet_sync_batches_total"))
	out.set("fleet.records_merged", merged)
	out.set("fleet.records_deduped", deduped)
	out.set("fleet.dedup_per_merged", deduped/merged)
	out.set("fleet.results_bytes_fetched", float64(fetched))

	// The same spec on one box: one serve.Server, pool nproc.
	single, err := startServe(w.work, nproc)
	if err != nil {
		return err
	}
	defer single.close()
	runtime.GC()
	r, err := w.one(single, nil, 0)
	if err != nil {
		return err
	}
	singleWall := r.wall()
	out.set("serve.cheap_wall_s", seconds(singleWall))
	out.set("fleet.overhead_ratio", seconds(fleetWall)/seconds(singleWall))
	info("fleet %.3f s, single box %.3f s, direct Campaign.Run %.3f s", seconds(fleetWall), seconds(singleWall), seconds(w.refWall))
	raw, err := single.get(single.api + "/" + r.id + "/results")
	if err != nil {
		return err
	}
	recs, err := store.DecodeRecords(bytes.NewReader(raw))
	if err != nil || len(recs) != gridSize(w.spec) {
		return fmt.Errorf("single-box result log: %d records, %v", len(recs), err)
	}

	camp, err := cliffedge.NewCampaignFromSpec(w.spec)
	if err != nil {
		return err
	}
	durs, _ := jobTimes(camp.Jobs(), nproc, func(_ int, j campaign.Job) { camp.RunJob(context.Background(), j) })
	out.set("cliffedge.job_us_cheap", mean(micros(durs)))
	return probeCommitPath(w.work, w.spec, camp, recs, out)
}
