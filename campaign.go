package cliffedge

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cliffedge/internal/campaign"
	"cliffedge/internal/check"
	"cliffedge/internal/core"
	"cliffedge/internal/gen"
	"cliffedge/internal/graph"
	"cliffedge/internal/region"
	"cliffedge/internal/sim"
)

// A Campaign is a statistical sweep: a grid of (topology family × fault
// regime × engine) cells, each run over a range of seeds (and optionally
// several attempts per seed), executed across a worker pool with one
// single-threaded run per worker. Where a Cluster answers "what happens in
// this scenario", a Campaign answers distributional questions — how
// decision latency, message cost and agreement behave over thousands of
// workloads — and fits the paper's locality claim (cost ∝ failure border,
// never system size) as a regression slope over every run.
//
//	camp, err := cliffedge.NewCampaign(
//		cliffedge.WithTopologies("grid", "datacenter"),
//		cliffedge.WithRegimes("quiescent", "midprotocol"),
//		cliffedge.WithSeedRange(1, 64),
//	)
//	report, err := camp.Run(ctx)
//	// report.Cells: per-cell latency percentiles, costs, violation and
//	// agreement rates; report.Locality: the fitted slope.
//
// Each cell's workloads are pure functions of the seed, so a campaign is
// reproducible run to run (up to scheduling noise in live cells), and sim
// and live cells of the same (family, regime, seed) execute the identical
// workload.
type Campaign struct {
	families []gen.Family
	regimes  []gen.Regime
	engines  []string
	seed     int64
	seeds    int
	repeats  int
	workers  int
	copts    []Option
	traceDir string
}

// CampaignOption configures a Campaign at construction time.
type CampaignOption func(*Campaign) error

// CampaignReport is a finished campaign: per-cell statistics plus the
// global locality fit. Use WriteText, WriteJSON or WriteCSV to render it.
type CampaignReport = campaign.Report

// CampaignCell is the aggregated statistics of one campaign cell.
type CampaignCell = campaign.CellReport

// CampaignCellKey identifies one (topology family, fault regime, engine)
// cell of a campaign grid.
type CampaignCellKey = campaign.CellKey

// CampaignJob identifies one run of a campaign grid: a cell plus the seed
// and attempt that pin its workload.
type CampaignJob = campaign.Job

// CampaignGrid is a campaign's job space, cells × seeds × attempts, and
// the grid index that numbers its jobs.
type CampaignGrid = campaign.Grid

// CampaignRunStats is the constant-size summary one campaign run produces.
type CampaignRunStats = campaign.RunStats

// CampaignSpec is the serialisable description of a Campaign — the wire
// form a campaign server accepts and the manifest form the store persists.
// It round-trips: NewCampaignFromSpec(c.Spec()) builds a campaign with the
// identical grid, and identical seeds mean identical workloads, so a spec
// fully names a sweep. Cluster options (WithClusterOptions) are runtime
// configuration, not part of the spec; frontends re-apply them when
// rebuilding a campaign from a persisted spec.
type CampaignSpec struct {
	Topologies []string `json:"topologies"`
	Regimes    []string `json:"regimes"`
	Engines    []string `json:"engines"`
	SeedStart  int64    `json:"seed_start"`
	Seeds      int      `json:"seeds"`
	Repeats    int      `json:"repeats"`
	// Workers is advisory: the pool size a dedicated runner should use
	// (0 = GOMAXPROCS). A shared server schedules its own pool and
	// ignores it.
	Workers int `json:"workers,omitempty"`
}

// Spec returns the campaign's serialisable description.
func (c *Campaign) Spec() CampaignSpec {
	s := CampaignSpec{
		SeedStart: c.seed, Seeds: c.seeds, Repeats: c.repeats, Workers: c.workers,
	}
	for _, f := range c.families {
		s.Topologies = append(s.Topologies, f.Name)
	}
	for _, r := range c.regimes {
		s.Regimes = append(s.Regimes, r.Name)
	}
	s.Engines = append(s.Engines, c.engines...)
	return s
}

// NewCampaignFromSpec rebuilds a Campaign from its serialised description,
// validating every name and range exactly as the options would. Extra
// options (typically WithClusterOptions) apply on top of the spec.
func NewCampaignFromSpec(s CampaignSpec, extra ...CampaignOption) (*Campaign, error) {
	opts := []CampaignOption{
		WithTopologies(s.Topologies...),
		WithRegimes(s.Regimes...),
		WithCampaignEngines(s.Engines...),
		WithSeedRange(s.SeedStart, s.Seeds),
		WithRepeats(s.Repeats),
	}
	if s.Workers != 0 {
		opts = append(opts, WithWorkers(s.Workers))
	}
	return NewCampaign(append(opts, extra...)...)
}

// NewCampaign builds a Campaign. Defaults: every topology family, every
// fault regime, the sim engine only, seeds 1–16, one attempt per seed,
// GOMAXPROCS workers.
func NewCampaign(opts ...CampaignOption) (*Campaign, error) {
	c := &Campaign{
		families: gen.Families(),
		regimes:  gen.Regimes(),
		engines:  []string{"sim"},
		seed:     1,
		seeds:    16,
		repeats:  1,
	}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("cliffedge: nil CampaignOption")
		}
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// WithTopologies restricts the sweep to the named topology families
// (gen registry names: grid, ring, er, smallworld, scalefree, datacenter).
func WithTopologies(names ...string) CampaignOption {
	return func(c *Campaign) error {
		if len(names) == 0 {
			return fmt.Errorf("cliffedge: WithTopologies needs at least one family")
		}
		c.families = c.families[:0]
		for _, name := range names {
			f, ok := gen.FamilyByName(name)
			if !ok {
				return fmt.Errorf("cliffedge: unknown topology family %q (have %s)",
					name, strings.Join(gen.FamilyNames(), ", "))
			}
			c.families = append(c.families, f)
		}
		return nil
	}
}

// WithRegimes restricts the sweep to the named fault regimes
// (gen registry names: quiescent, overlapping, midprotocol).
func WithRegimes(names ...string) CampaignOption {
	return func(c *Campaign) error {
		if len(names) == 0 {
			return fmt.Errorf("cliffedge: WithRegimes needs at least one regime")
		}
		c.regimes = c.regimes[:0]
		for _, name := range names {
			r, ok := gen.RegimeByName(name)
			if !ok {
				return fmt.Errorf("cliffedge: unknown fault regime %q (have %s)",
					name, strings.Join(gen.RegimeNames(), ", "))
			}
			c.regimes = append(c.regimes, r)
		}
		return nil
	}
}

// WithCampaignEngines selects the engines to sweep: "sim" (deterministic
// simulator, the default) and/or "live" (goroutine-per-node runtime).
func WithCampaignEngines(names ...string) CampaignOption {
	return func(c *Campaign) error {
		if len(names) == 0 {
			return fmt.Errorf("cliffedge: WithCampaignEngines needs at least one engine")
		}
		c.engines = c.engines[:0]
		for _, name := range names {
			if name != "sim" && name != "live" {
				return fmt.Errorf("cliffedge: unknown campaign engine %q (have sim, live)", name)
			}
			c.engines = append(c.engines, name)
		}
		return nil
	}
}

// WithSeedRange sweeps seeds start, start+1, …, start+n−1. Each seed names
// one workload (topology draw plus fault plan) per cell.
func WithSeedRange(start int64, n int) CampaignOption {
	return func(c *Campaign) error {
		if n < 1 {
			return fmt.Errorf("cliffedge: seed range needs n ≥ 1, got %d", n)
		}
		c.seed, c.seeds = start, n
		return nil
	}
}

// WithRepeats runs every workload n times. Attempts of a deterministic sim
// cell must reproduce identical outcomes (agreement rate 1.0); attempts of
// a live cell sample the Go scheduler, which is what the cross-run
// agreement rate of racy regimes measures.
func WithRepeats(n int) CampaignOption {
	return func(c *Campaign) error {
		if n < 1 {
			return fmt.Errorf("cliffedge: repeats must be ≥ 1, got %d", n)
		}
		c.repeats = n
		return nil
	}
}

// WithWorkers sets the worker-pool size (default GOMAXPROCS). Each worker
// executes one run at a time; runs themselves stay single-threaded.
func WithWorkers(n int) CampaignOption {
	return func(c *Campaign) error {
		if n < 1 {
			return fmt.Errorf("cliffedge: workers must be ≥ 1, got %d", n)
		}
		c.workers = n
		return nil
	}
}

// WithClusterOptions applies extra Cluster options (latency bands,
// propose/pick functions, live timeouts, event budgets, …) to every run of
// the campaign. Settings the campaign controls itself — the seed, the
// engine of each cell, trace buffering and CD1–CD7 checking (the campaign
// always runs its own online checker and counts violations per run) — are
// applied after these options and override them, so a stray WithSeed,
// WithEngine or WithChecker here cannot silently change what a cell
// measures. WithKernelShards passes through untouched — sharding changes
// only wall-clock time, never the trace, so campaign cells keep their
// byte-identical results at any shard count.
func WithClusterOptions(opts ...Option) CampaignOption {
	return func(c *Campaign) error {
		for _, o := range opts {
			if o == nil {
				return fmt.Errorf("cliffedge: nil Option in WithClusterOptions")
			}
		}
		c.copts = append(c.copts, opts...)
		return nil
	}
}

// WithTraceDir makes every run of the campaign stream its full event
// trace into dir, one binary-format file per job named Job.TraceName()
// (convert with cliffedge-trace). The write path composes with the
// campaign's constant-memory posture: runs execute under
// WithoutTraceBuffer and the trace streams straight to disk, so memory
// stays bounded by the topology no matter how large the trace grows. Like
// WithClusterOptions, this is runtime configuration, not part of the
// campaign's Spec. The directory must exist; a job whose trace file
// cannot be created or written reports the failure as its run error.
func WithTraceDir(dir string) CampaignOption {
	return func(c *Campaign) error {
		if dir == "" {
			return fmt.Errorf("cliffedge: empty trace directory")
		}
		c.traceDir = dir
		return nil
	}
}

// cells expands the configured grid.
func (c *Campaign) cells() []campaign.CellKey {
	var out []campaign.CellKey
	for _, f := range c.families {
		for _, r := range c.regimes {
			for _, e := range c.engines {
				out = append(out, campaign.CellKey{Topology: f.Name, Regime: r.Name, Engine: e})
			}
		}
	}
	return out
}

// Jobs expands the campaign's full grid — cells × seeds × attempts — in
// deterministic order. A persistent frontend uses the job list as the
// resume cursor: jobs whose results are already on disk are skipped, the
// rest re-run, and determinism makes the merged report indistinguishable
// from an uninterrupted sweep.
func (c *Campaign) Jobs() []CampaignJob { return c.Grid().Jobs() }

// Grid returns the campaign's job space without expanding it: a job's
// grid index is the compact key a persistent frontend keeps per job.
func (c *Campaign) Grid() CampaignGrid {
	return campaign.Grid{Cells: c.cells(), SeedStart: c.seed, Seeds: c.seeds, Attempts: c.repeats}
}

// Workers returns the configured dedicated-pool size (0 = GOMAXPROCS).
func (c *Campaign) Workers() int { return c.workers }

// Run executes the campaign on a dedicated pool of Workers() workers
// (0 = GOMAXPROCS). The returned report is complete when err is nil.
// Cancelling ctx aborts the in-flight runs and returns ctx's error with a
// partial report over the runs that completed: aborted runs are dropped,
// never counted as run errors.
func (c *Campaign) Run(ctx context.Context) (*CampaignReport, error) {
	agg := campaign.NewAggregator()
	err := campaign.RunAll(ctx, c.workers, c.Jobs(), c.runJob,
		func(j campaign.Job, s campaign.RunStats, persist bool) {
			if persist {
				agg.Add(j, s)
			}
		})
	return agg.Report(), err
}

// RunJob executes a single job of the campaign's grid and returns its
// constant-size summary. This is the unit a campaign server schedules: the
// run is single-threaded and a pure function of the job for sim cells, so
// any executor — a dedicated pool, a fair-shared server pool, a remote
// worker — produces the same result. Jobs outside the campaign's grid
// report an error.
func (c *Campaign) RunJob(ctx context.Context, job CampaignJob) CampaignRunStats {
	if _, ok := gen.FamilyByName(job.Cell.Topology); !ok {
		return campaign.RunStats{Err: fmt.Sprintf("unknown topology family %q", job.Cell.Topology)}
	}
	if _, ok := gen.RegimeByName(job.Cell.Regime); !ok {
		return campaign.RunStats{Err: fmt.Sprintf("unknown fault regime %q", job.Cell.Regime)}
	}
	if job.Cell.Engine != "sim" && job.Cell.Engine != "live" {
		return campaign.RunStats{Err: fmt.Sprintf("unknown engine %q", job.Cell.Engine)}
	}
	return c.runJob(ctx, job)
}

// runContext is what a campaign job reuses from the jobs run before it
// on the same goroutine: the workload generator's rand.Rand, and for sim
// cells the online checker, the simulator runner and the slab of protocol
// nodes. Each is reset to the state a new one would have (re-seeded,
// Reset, a new factory), so a job's result never depends on what ran
// before it; what carries over is only memory — the source's state
// array, the kernel's queue chunks, per-node arrays and bitsets, the
// checker's tables and the nodes' buffers. Live cells build fresh state:
// their nodes run on goroutines of their own.
type runContext struct {
	rng    *rand.Rand
	online check.Online
	runner sim.Runner
	nodes  core.Slab
}

// runContexts recycles run contexts between jobs. Every job takes one and
// returns it when done, so any executor that runs jobs through
// Campaign.RunJob — the dedicated pool, a server's scheduler, a fleet
// worker — reuses them without knowing.
var runContexts = sync.Pool{New: func() any {
	return &runContext{rng: rand.New(rand.NewSource(1))}
}}

// withRunContext makes a sim run of the Cluster use rc's runner and node
// slab. The cluster must not run anything else until the run is done.
func withRunContext(rc *runContext) Option {
	return func(c *Cluster) error { c.rc = rc; return nil }
}

// runJob executes one campaign run: draw the workload from the seed
// (topology, fault plan and — for net-conditioned regimes — the network
// model, in that fixed order), run it on the cell's engine with the
// regime's sound checker subset and constant-memory observers attached,
// and summarise into a RunStats.
func (c *Campaign) runJob(ctx context.Context, job campaign.Job) campaign.RunStats {
	rc := runContexts.Get().(*runContext)
	defer runContexts.Put(rc)
	fam, _ := gen.FamilyByName(job.Cell.Topology)
	reg, _ := gen.RegimeByName(job.Cell.Regime)
	rng := rc.rng
	rng.Seed(job.Seed)
	topo, _ := fam.New(rng)
	waves := reg.Plan(rng, topo)
	netModel := reg.NetModel(rng)
	if len(waves) == 0 {
		return campaign.RunStats{Skipped: true}
	}
	live := job.Cell.Engine == "live"

	// The checker subset is regime-sound: full CD1–CD7 for reliable
	// regimes, safety-only where the regime genuinely loses messages,
	// none where marks make crash ground truth inapplicable.
	var online *check.Online
	switch {
	case reg.Check == gen.CheckNone:
	case live:
		online = check.NewOnline(topo)
	default:
		online = &rc.online
		online.Reset(topo)
	}
	// Decision latency, streamed in O(1) memory per value: each
	// decision's lag is measured against the most recent preceding crash
	// (so multi-wave plans report per-wave convergence, not the
	// artificial inter-wave spacing); every lag lands in the run's
	// bounded-bucket histogram and the slowest is kept alongside.
	lastCrash, maxLag := int64(-1), int64(-1)
	lats := &campaign.Hist{}
	engine := Sim()
	if live {
		engine = Live()
	}
	opts := append(append([]Option(nil), c.copts...),
		// The campaign's own settings come last so that stray
		// WithSeed/WithEngine/WithChecker values in WithClusterOptions
		// cannot change what a cell measures (see WithClusterOptions).
		WithSeed(job.Seed),
		WithoutTraceBuffer(),
		WithEngine(engine),
		withoutChecker(),
		WithObserver(func(e Event) {
			if online != nil {
				online.Observe(e)
			}
			switch e.Kind {
			case EventCrash:
				lastCrash = e.Time
			case EventDecide:
				// A lag of a full WaveSpacing or more means the decision
				// converged on something other than that crash — e.g. a
				// later mark wave of the upgrade regime (marks emit no
				// crash event) — so it is inter-wave spacing, not a
				// convergence lag, and is not recorded.
				if lag := e.Time - lastCrash; lastCrash >= 0 && lag < gen.WaveSpacing {
					lats.Add(lag)
					if lag > maxLag {
						maxLag = lag
					}
				}
			}
		}),
	)
	if netModel != nil {
		opts = append(opts, WithNetModel(netModel))
	}
	if !live {
		opts = append(opts, withRunContext(rc))
	}
	// Per-job trace persistence (WithTraceDir): the run streams its binary
	// trace straight to disk (the trace writer buffers), and a failed run
	// leaves no partial file behind — resume re-runs the job, so a trace
	// file's existence means "this job's full trace", never a torn prefix.
	var traceFile *os.File
	if c.traceDir != "" {
		f, err := os.Create(filepath.Join(c.traceDir, job.TraceName()))
		if err != nil {
			return campaign.RunStats{Err: err.Error()}
		}
		traceFile = f
		opts = append(opts, WithTraceWriter(f))
	}
	discardTrace := func() {
		if traceFile != nil {
			traceFile.Close()
			os.Remove(traceFile.Name())
		}
	}
	cl, err := New(topo, opts...)
	if err != nil {
		discardTrace()
		return campaign.RunStats{Err: err.Error()}
	}

	var res *Result
	if live && reg.Racing {
		res, err = runRacingLive(ctx, cl, waves, job.Seed*1315423911+int64(job.Attempt))
	} else {
		plan := NewPlan()
		for _, w := range waves {
			plan.At(w.Time)
			plan.Crash(w.Crash...)
			plan.Mark(w.Mark...)
		}
		res, err = cl.Run(ctx, plan)
	}
	if err != nil {
		discardTrace()
		return campaign.RunStats{Err: err.Error()}
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			os.Remove(traceFile.Name())
			return campaign.RunStats{Err: fmt.Sprintf("trace sink %s: %v", traceFile.Name(), err)}
		}
	}
	return summarize(topo, res, online, reg, lats, maxLag)
}

// withoutChecker disables Cluster-level CD1–CD7 checking. The campaign
// verifies every run through its own check.Online observer and *counts*
// violations per run; the Cluster checker would instead turn a violation
// into a run error, conflating the report's error and violation columns.
func withoutChecker() Option {
	return func(c *Cluster) error { c.checked = false; return nil }
}

// runRacingLive injects the plan's waves into a live runtime without
// waiting for quiescence in between — later waves race into agreements
// still in flight, the regime the quiescence-separated Live engine cannot
// express and the pointwise differential oracle must exclude. It shares
// the engine's runtime plumbing (runLiveWaves with the barrier off); a
// short jittered pause between waves (seeded per attempt) varies how far
// each agreement gets before the next wave lands.
func runRacingLive(ctx context.Context, c *Cluster, waves []gen.Wave, jitterSeed int64) (*Result, error) {
	jitter := rand.New(rand.NewSource(jitterSeed))
	lw := make([]liveWave, len(waves))
	for i, w := range waves {
		lw[i] = liveWave{crash: w.Crash, mark: w.Mark}
	}
	net, err := c.bindNet(nil)
	if err != nil {
		return nil, err
	}
	return runLiveWaves(ctx, c, net, false, lw, false, func(int) {
		time.Sleep(time.Duration(jitter.Intn(500)) * time.Microsecond)
	})
}

// summarize folds a finished run into the constant-size RunStats the
// aggregator consumes: trace counters, the regime-sound violation count,
// link-layer counters, the per-decision latency histogram, and the
// stall/decision-rate ground truth (which alive border nodes of the final
// faulty domains decided, judged cluster by cluster like CD7 — but
// counted, not flagged).
func summarize(topo *Topology, res *Result, online *check.Online, reg gen.Regime, lats *campaign.Hist, maxLag int64) campaign.RunStats {
	crashed := graph.NewBitset(topo.Len())
	for n := range res.Crashed {
		crashed.Set(topo.Index(n))
	}
	domains := region.Domains(topo, crashed)
	border := 0
	for _, d := range domains {
		border += d.BorderLen()
	}

	s := campaign.RunStats{
		Nodes:      topo.Len(),
		Crashed:    len(res.Crashed),
		Border:     border,
		Domains:    len(domains),
		Decisions:  len(res.Decisions),
		Messages:   res.Stats.Messages,
		Deliveries: res.Stats.Deliveries,
		Bytes:      res.Stats.Bytes,
	}
	if res.Net != nil {
		s.NetDelivered = res.Net.Delivered
		s.NetDropped = res.Net.Dropped
		s.NetRetransmits = res.Net.Retransmits
		s.NetDuplicates = res.Net.Duplicates
	}
	// Violations plus the stall/decision-rate ground truth. The checker
	// report already computes the faulty clusters and which of them
	// acquired a correct decider (the CD7 relation), so a stall is
	// simply "fewer decided clusters than clusters" — counted, not
	// flagged. Skipped for mark-based regimes (CheckNone, online == nil):
	// marked nodes sit on crash-domain borders but legitimately never
	// decide, so the crash-only expectation would misread a healthy
	// rolling upgrade as a stall — their cells report agreement and
	// decision counts instead, and also skip the locality fit, whose
	// border covariate only explains crash-domain coordination cost.
	if online != nil {
		var rep check.Report
		if reg.Check == gen.CheckSafety {
			rep = online.SafetyReport()
		} else {
			rep = online.Report()
		}
		s.Violations = len(rep.Violations)
		s.Stalled = rep.DecidedClusters < rep.Clusters
		// Domains are maximal, so their border nodes are alive by
		// construction; expected deciders are the distinct border nodes.
		expected, decided := graph.NewBitset(topo.Len()), graph.NewBitset(topo.Len())
		for _, dom := range domains {
			for _, b := range dom.BorderIndices() {
				expected.Set(b)
			}
		}
		for _, d := range res.Decisions {
			if i := topo.Index(d.Node); i >= 0 {
				decided.Set(i)
			}
		}
		s.ExpectedDeciders = expected.Count()
		for w := range expected {
			s.DecidedDeciders += bits.OnesCount64(expected[w] & decided[w])
		}
	} else {
		s.SkipLocality = true
	}
	s.DecideLatency = maxLag
	s.Lats = lats
	var fp strings.Builder
	for i, d := range res.Decisions {
		if i > 0 {
			fp.WriteByte(';')
		}
		fp.WriteString(string(d.Node))
		fp.WriteString("→{")
		fp.WriteString(d.View.Key())
		fp.WriteString("}=")
		fp.WriteString(string(d.Value))
	}
	s.Fingerprint = fp.String()
	return s
}
