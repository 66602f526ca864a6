// Package campaign runs statistical sweeps over many independent protocol
// runs: the Scheduler, the one worker pool, executes a grid of (cell ×
// seed × attempt) jobs, and each run's constant-memory summary is folded
// into an Aggregator, which computes per-cell statistics — decision
// latency percentiles, message and byte costs against crashed-region and
// border sizes (the paper's locality claim, checkable as a fitted slope),
// property-violation rates, and cross-run agreement rates for the racy
// regimes the pointwise sim-vs-live differential oracle must exclude.
//
// The package is deliberately execution-agnostic: a Job names a workload,
// and the caller's Task.Run function turns it into a RunStats. The public
// cliffedge.Campaign binds jobs to Cluster/Engine runs; tests bind them to
// synthetic functions. Each individual run stays single-threaded (the
// deterministic kernel's contract); parallelism lives entirely across
// runs, which is the cheapest way to use every core.
package campaign

import "fmt"

// CellKey identifies one cell of a campaign grid: a topology family, a
// fault regime and an engine. All runs of a cell differ only in seed and
// attempt.
type CellKey struct {
	Topology string `json:"topology"`
	Regime   string `json:"regime"`
	Engine   string `json:"engine"`
}

func (k CellKey) String() string {
	return k.Topology + "/" + k.Regime + "/" + k.Engine
}

// less orders jobs for stable reports and resume cursors.
func (j Job) less(o Job) bool {
	if j.Cell != o.Cell {
		return j.Cell.less(o.Cell)
	}
	if j.Seed != o.Seed {
		return j.Seed < o.Seed
	}
	return j.Attempt < o.Attempt
}

// less orders cells for stable reports.
func (k CellKey) less(o CellKey) bool {
	if k.Topology != o.Topology {
		return k.Topology < o.Topology
	}
	if k.Regime != o.Regime {
		return k.Regime < o.Regime
	}
	return k.Engine < o.Engine
}

// Job is one run of a campaign: a cell, the seed that determines its
// workload (topology and fault plan), and the attempt number. Attempts
// repeat the identical workload; for deterministic engines they must
// reproduce the same outcome, for live engines they sample the scheduler,
// which is what the cross-run agreement rate measures.
type Job struct {
	Cell    CellKey
	Seed    int64
	Attempt int
}

// TraceName is the canonical file name of this job's persisted binary
// trace: every coordinate of the job key appears, so a directory of
// traces is self-describing and collision-free within one campaign.
func (j Job) TraceName() string {
	return fmt.Sprintf("%s-%s-%s-s%d-a%d.bin",
		j.Cell.Topology, j.Cell.Regime, j.Cell.Engine, j.Seed, j.Attempt)
}

// RunStats is the constant-size summary one run streams back into the
// aggregator. It is produced by streaming observers — never by retaining
// the trace — so memory per in-flight run is bounded by the topology.
type RunStats struct {
	// Err is the run error, if any ("" on success). Errored runs are
	// counted but contribute no statistics.
	Err string
	// Skipped marks jobs whose generator produced no usable workload.
	Skipped bool
	// Violations counts CD1–CD7 checker violations (0 on a correct run).
	Violations int

	Nodes      int // system size |Π|
	Crashed    int // total crashed nodes at the end of the run
	Border     int // total border size over the final faulty domains
	Domains    int // number of final faulty domains
	Decisions  int
	Messages   int
	Deliveries int
	Bytes      int
	// DecideLatency is the run's slowest decision lag — each decision
	// measured against the most recent preceding crash, so multi-wave
	// plans report per-wave convergence rather than inter-wave spacing —
	// in engine time units (virtual ticks for the simulator, logical
	// event ticks for the live runtime); -1 when the run decided nothing.
	DecideLatency int64
	// Lats is the run's full per-decision latency distribution (same lag
	// definition as DecideLatency, one sample per decision) in bounded
	// HDR-style buckets. When nil, the aggregator falls back to folding
	// the single DecideLatency value into the cell distribution.
	Lats *Hist
	// Fingerprint canonically encodes the run's decision outcome (who
	// decided which view with which value); runs of the same workload
	// agree exactly when their fingerprints match.
	Fingerprint string

	// Link-layer counters of the run's network-condition model (all zero
	// when the run was unconditioned).
	NetDelivered   int64
	NetDropped     int64
	NetRetransmits int64
	NetDuplicates  int64

	// ExpectedDeciders counts the alive border nodes of the run's final
	// faulty domains, and DecidedDeciders how many of them decided
	// anything. Their ratio is the cell's decision rate — below 1.0 even
	// on reliable channels when a grown region deterministically blocks
	// (an earlier decider on its border), and degrading further under raw
	// loss, which is what the metric quantifies.
	ExpectedDeciders int
	DecidedDeciders  int
	// Stalled marks a run in which at least one faulty cluster with an
	// alive border produced no decision — the outcome CD7 forbids under
	// reliable channels and raw loss makes possible.
	Stalled bool
	// SkipLocality excludes the run from the locality regression —
	// mark-based regimes coordinate around alive zones, so their message
	// cost is unrelated to the crash-domain border the fit explains.
	SkipLocality bool
}

// Grid is a campaign's job space: cells × seeds × attempts. Job i is
// cell i / (Seeds·Attempts), seed SeedStart + (i / Attempts) mod Seeds,
// attempt i mod Attempts — cell-major, then seed, then attempt, the order
// Jobs emits — so a job's grid index is all a consumer needs to keep per
// job. Cells are distinct in a well-formed grid; Index maps a repeated
// cell to its first position.
type Grid struct {
	Cells     []CellKey
	SeedStart int64
	Seeds     int
	Attempts  int
}

// Len is the number of jobs in the grid.
func (g Grid) Len() int { return len(g.Cells) * g.Seeds * g.Attempts }

// Job returns job i, 0 ≤ i < Len().
func (g Grid) Job(i int) Job {
	perCell := g.Seeds * g.Attempts
	r := i % perCell
	return Job{Cell: g.Cells[i/perCell], Seed: g.SeedStart + int64(r/g.Attempts), Attempt: r % g.Attempts}
}

// Index returns the grid index of job, and false when the job is not in
// the grid.
func (g Grid) Index(job Job) (int, bool) {
	if job.Attempt < 0 || job.Attempt >= g.Attempts || job.Seed < g.SeedStart {
		return 0, false
	}
	s := uint64(job.Seed) - uint64(g.SeedStart) // exact: job.Seed ≥ SeedStart
	if s >= uint64(g.Seeds) {
		return 0, false
	}
	for c, cell := range g.Cells {
		if cell == job.Cell {
			return (c*g.Seeds+int(s))*g.Attempts + job.Attempt, true
		}
	}
	return 0, false
}

// Jobs expands the grid into its job list, in grid order.
func (g Grid) Jobs() []Job {
	jobs := make([]Job, g.Len())
	for i := range jobs {
		jobs[i] = g.Job(i)
	}
	return jobs
}
