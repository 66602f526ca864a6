package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"cliffedge"
	"cliffedge/internal/campaign"
	"cliffedge/internal/check"
	"cliffedge/internal/fleet"
	"cliffedge/internal/gen"
	"cliffedge/internal/graph"
	"cliffedge/internal/serve"
	"cliffedge/internal/store"
)

// Probes time one layer's public functions directly, outside any server,
// on inputs taken from the workload (real records, real events). Each
// takes the median of a few timed batches after one discarded batch.

const probeBatches = 3

// perItem runs batch() once discarded and probeBatches times timed, and
// returns the median nanoseconds per item.
func perItem(items int, batch func() error) (float64, error) {
	var ns []float64
	for b := 0; b <= probeBatches; b++ {
		start := time.Now()
		if err := batch(); err != nil {
			return 0, err
		}
		if b > 0 {
			ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(items))
		}
	}
	return median(ns), nil
}

// probeGen times the workload draw of every job: Family.New, Regime.Plan
// and NetModel, in the order Campaign.RunJob makes them. Microseconds.
func probeGen(jobs []campaign.Job) float64 {
	ns, _ := perItem(len(jobs), func() error {
		for _, j := range jobs {
			fam, _ := gen.FamilyByName(j.Cell.Topology)
			reg, _ := gen.RegimeByName(j.Cell.Regime)
			rng := rand.New(rand.NewSource(j.Seed))
			topo, _ := fam.New(rng)
			reg.Plan(rng, topo)
			reg.NetModel(rng)
		}
		return nil
	})
	return ns / 1e3
}

// probeCheck captures the events of the first two seeds of every checked
// cell of spec and replays them through fresh check.Online observers:
// nanoseconds per Observe, and the median milliseconds of one Report.
func probeCheck(spec cliffedge.CampaignSpec) (nsPerEvent, reportMs float64, err error) {
	type capture struct {
		topo   *graph.Graph
		events []cliffedge.Event
	}
	var caps []capture
	total := 0
	sub := spec
	sub.Seeds = min(spec.Seeds, 2)
	camp, err := cliffedge.NewCampaignFromSpec(sub)
	if err != nil {
		return 0, 0, err
	}
	for _, j := range camp.Jobs() {
		fam, _ := gen.FamilyByName(j.Cell.Topology)
		reg, _ := gen.RegimeByName(j.Cell.Regime)
		if reg.Check == gen.CheckNone {
			continue
		}
		rng := rand.New(rand.NewSource(j.Seed))
		topo, _ := fam.New(rng)
		waves := reg.Plan(rng, topo)
		opts := []cliffedge.Option{cliffedge.WithSeed(j.Seed)}
		if m := reg.NetModel(rng); m != nil {
			opts = append(opts, cliffedge.WithNetModel(m))
		}
		cl, err := cliffedge.New(topo, opts...)
		if err != nil {
			return 0, 0, err
		}
		plan := cliffedge.NewPlan()
		for _, w := range waves {
			plan.At(w.Time).Crash(w.Crash...).Mark(w.Mark...)
		}
		res, err := cl.Run(context.Background(), plan)
		if err != nil {
			return 0, 0, err
		}
		caps = append(caps, capture{topo, res.Events()})
		total += len(res.Events())
	}
	if total == 0 {
		return 0, 0, fmt.Errorf("probeCheck: no events captured")
	}
	var observeNs, reportMsBatches []float64
	for b := 0; b <= probeBatches; b++ {
		var observe time.Duration
		var reports []float64
		for _, c := range caps {
			online := check.NewOnline(c.topo)
			start := time.Now()
			for _, e := range c.events {
				online.Observe(e)
			}
			observe += time.Since(start)
			start = time.Now()
			online.Report()
			reports = append(reports, millis(time.Since(start)))
		}
		if b > 0 { // the first batch is the warm-up
			observeNs = append(observeNs, float64(observe.Nanoseconds())/float64(total))
			reportMsBatches = append(reportMsBatches, median(reports))
		}
	}
	return median(observeNs), median(reportMsBatches), nil
}

// probeAggregator times Aggregator.Add per run and Report + WriteJSON.
func probeAggregator(jobs []campaign.Job, stats []campaign.RunStats) (addNs, reportMs float64, err error) {
	var agg *campaign.Aggregator
	addNs, _ = perItem(len(jobs), func() error {
		agg = campaign.NewAggregator()
		for i, j := range jobs {
			agg.Add(j, stats[i])
		}
		return nil
	})
	ns, err := perItem(1, func() error { return agg.Report().WriteJSON(io.Discard) })
	return addNs, ns / 1e6, err
}

// probeCommitPath times the layers a committed run passes through on a
// worker and again on the coordinator, on the records of a real cheap
// sweep: store append and replay, Sweep.Commit, WriteSSE, MergeRecords,
// Split.
func probeCommitPath(work string, spec cliffedge.CampaignSpec, camp *cliffedge.Campaign, recs []store.Record, out *ledger) error {
	dir, err := os.MkdirTemp(work, "probe-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}

	n := 0
	var size int64
	ns, err := perItem(len(recs), func() error {
		n++
		id := fmt.Sprintf("append-%d", n)
		if err := st.Create(store.Manifest{ID: id, Status: store.StatusRunning, Spec: []byte("{}")}); err != nil {
			return err
		}
		log, _, err := st.OpenResults(id)
		if err != nil {
			return err
		}
		defer log.Close()
		for _, r := range recs {
			if err := log.Append(r); err != nil {
				return err
			}
		}
		path, _ := st.File(id, "results.log")
		fi, err := os.Stat(path)
		if err == nil {
			size = fi.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	out.set("store.append_ns", ns)
	out.set("store.bytes_per_rec", float64(size)/float64(len(recs)))

	ns, err = perItem(len(recs), func() error {
		log, got, err := st.OpenResults("append-1")
		if err != nil {
			return err
		}
		if len(got) != len(recs) {
			return fmt.Errorf("replayed %d of %d records", len(got), len(recs))
		}
		return log.Close()
	})
	if err != nil {
		return err
	}
	out.set("store.replay_ms_per_10k", ns*1e4/1e6)

	var events []serve.Event
	ns, err = perItem(len(recs), func() error {
		n++
		sw, err := serve.Create(st, fmt.Sprintf("commit-%d", n), "probe", time.Time{}, spec)
		if err != nil {
			return err
		}
		defer sw.Close()
		for _, r := range recs {
			if err := sw.Commit(r.Job(), r.Stats, true); err != nil {
				return err
			}
		}
		events, _ = sw.EventsSince(0)
		return nil
	})
	if err != nil {
		return err
	}
	out.set("serve.commit_ns", ns)

	ns, err = perItem(len(events), func() error {
		for _, ev := range events {
			if err := serve.WriteSSE(io.Discard, ev); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.set("serve.sse_write_ns", ns)

	ns, err = perItem(len(recs), func() error {
		_, err := fleet.MergeRecords(camp, recs)
		return err
	})
	if err != nil {
		return err
	}
	out.set("fleet.merge_ns_per_rec", ns)

	ns, _ = perItem(1000, func() error {
		for i := 0; i < 1000; i++ {
			fleet.Split(spec, 8)
		}
		return nil
	})
	out.set("fleet.split_us", ns/1e3)
	return nil
}

// probeCreate times Store.Create: the campaign directory plus the
// manifest's tmp+rename. Median milliseconds.
func probeCreate(work string) (float64, error) {
	dir, err := os.MkdirTemp(work, "create-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	spec, err := json.Marshal(mixedSpec(1, 8))
	if err != nil {
		return 0, err
	}
	var ms []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		if err := st.Create(store.Manifest{ID: fmt.Sprintf("c%06d", i), Status: store.StatusRunning, Spec: spec}); err != nil {
			return 0, err
		}
		ms = append(ms, millis(time.Since(start)))
	}
	return median(ms), nil
}

// probeResume times serve.NewServer on a store that holds one finished
// and one half-run campaign of spec — what a restarted daemon pays before
// it serves again.
func probeResume(work string, spec cliffedge.CampaignSpec) (float64, error) {
	dir, err := os.MkdirTemp(work, "resume-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	full, err := serve.Create(st, "c000001", "probe", time.Time{}, spec)
	if err != nil {
		return 0, err
	}
	if _, err := full.Run(context.Background(), nproc); err != nil {
		return 0, err
	}
	full.Close()
	path, err := st.File("c000001", "results.log")
	if err != nil {
		return 0, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	recs, err := store.DecodeRecords(bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	half, err := serve.Create(st, "c000002", "probe", time.Time{}, spec)
	if err != nil {
		return 0, err
	}
	for _, r := range recs[:len(recs)/2] {
		if err := half.Commit(r.Job(), r.Stats, true); err != nil {
			return 0, err
		}
	}
	half.Close()

	start := time.Now()
	srv, err := serve.NewServer(dir, serve.Config{Workers: nproc, Logger: quiet})
	elapsed := time.Since(start)
	if err != nil {
		return 0, err
	}
	srv.Shutdown() // the resumed half keeps its "running" manifest; the directory is removed
	return millis(elapsed), nil
}
