package serve

import (
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"cliffedge"
	"cliffedge/internal/campaign"
	"cliffedge/internal/store"
)

// Config parameterises a Server.
type Config struct {
	// Workers is the shared pool size; ≤ 0 means GOMAXPROCS.
	Workers int
	// MaxPerClient caps a single client's concurrently active campaigns
	// (≤ 0: 4). Clients identify via the X-Client-ID header; without one,
	// the remote address's host is used.
	MaxPerClient int
	// ClusterOptions apply to every run of every sweep — runtime
	// configuration (live tick, latency bands) outside the spec.
	ClusterOptions []cliffedge.Option
	// PersistTraces streams every run's full binary trace into the
	// store's per-campaign traces directory (one file per job, named
	// campaign.Job.TraceName). Like ClusterOptions it is runtime
	// configuration: resumed sweeps inherit the server's current setting.
	PersistTraces bool
	// Logger receives operational log records (nil: slog.Default).
	Logger *slog.Logger
	// now stamps campaign creation times (tests override; nil: time.Now).
	now func() time.Time
}

// Server is the campaign service: REST submission and lifecycle, SSE
// progress streaming, persistent sweeps resumed at startup. It is the
// Backend that runs sweeps on its own scheduler. Create one with
// NewServer, mount Handler, and Shutdown on exit — a SIGKILL instead
// merely means the next start resumes every running sweep.
type Server struct {
	st      *store.Store
	sched   *campaign.Scheduler
	cfg     Config
	log     *slog.Logger
	started time.Time
	sweeps  Resident[*Sweep]

	mu     sync.Mutex
	owner  map[string]string // campaign ID → client, running only
	nextID int
}

// NewServer opens the store, resumes every campaign whose manifest is
// still "running" (the crash/shutdown leftovers) and starts the shared
// scheduler.
func NewServer(dataDir string, cfg Config) (*Server, error) {
	st, err := store.Open(dataDir)
	if err != nil {
		return nil, err
	}
	if cfg.MaxPerClient <= 0 {
		cfg.MaxPerClient = 4
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s := &Server{
		st:      st,
		sched:   campaign.NewScheduler(cfg.Workers),
		cfg:     cfg,
		log:     logger,
		started: time.Now(),
		owner:   make(map[string]string),
		nextID:  1,
	}
	manifests, err := st.List()
	if err != nil {
		s.sched.Stop()
		return nil, err
	}
	for _, m := range manifests {
		if n := parseID(m.ID); n >= s.nextID {
			s.nextID = n + 1
		}
		if m.Status != store.StatusRunning {
			continue
		}
		extra, err := s.sweepOptions(m.ID)
		if err == nil {
			var sw *Sweep
			if sw, err = Open(st, m.ID, extra...); err == nil {
				s.log.Info("resumed campaign", "campaign", m.ID,
					"completed", sw.Completed(), "total", sw.Total())
				s.start(sw, m.Client)
				continue
			}
		}
		s.log.Warn("cannot resume campaign", "campaign", m.ID, "err", err)
	}
	return s, nil
}

// sweepOptions assembles the runtime campaign options applied to every
// sweep: the server-wide cluster options, plus — with PersistTraces —
// the store's per-campaign trace directory for this ID.
func (s *Server) sweepOptions(id string) ([]cliffedge.CampaignOption, error) {
	var extra []cliffedge.CampaignOption
	if len(s.cfg.ClusterOptions) > 0 {
		extra = append(extra, cliffedge.WithClusterOptions(s.cfg.ClusterOptions...))
	}
	if s.cfg.PersistTraces {
		dir, err := s.st.TraceDir(id)
		if err != nil {
			return nil, err
		}
		extra = append(extra, cliffedge.WithTraceDir(dir))
	}
	return extra, nil
}

// AllocateID returns the next unused c%06d campaign ID in st — the same
// scheme the server uses, so CLI-created and server-created campaigns
// share one namespace.
func AllocateID(st *store.Store) (string, error) {
	manifests, err := st.List()
	if err != nil {
		return "", err
	}
	n := 0
	for _, m := range manifests {
		if k := parseID(m.ID); k > n {
			n = k
		}
	}
	return fmt.Sprintf("c%06d", n+1), nil
}

// parseID extracts the numeric part of a server-allocated c%06d ID
// (0 for foreign IDs).
func parseID(id string) int {
	if !strings.HasPrefix(id, "c") {
		return 0
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// Shutdown stops the scheduler (in-flight runs abort, manifests of
// unfinished sweeps stay "running" for the next start) and closes every
// running sweep's log.
func (s *Server) Shutdown() {
	s.sched.Stop()
	running := s.sweeps.Clear()
	for _, sw := range running {
		sw.Close()
	}
	mActiveSweeps.Add(-int64(len(running)))
}

// start registers the sweep and enters its remaining jobs into the
// fair-share ring.
func (s *Server) start(sw *Sweep, client string) {
	s.sweeps.Add(sw.ID, sw)
	s.mu.Lock()
	s.owner[sw.ID] = client
	s.mu.Unlock()
	mActiveSweeps.Add(1)
	s.sched.Submit(&campaign.Task{
		ID:   sw.ID,
		Jobs: sw.Remaining(),
		Run:  sw.RunJob,
		Commit: func(job campaign.Job, stats campaign.RunStats, persist bool) {
			if err := sw.Commit(job, stats, persist); err != nil {
				s.log.Error("commit failed", "campaign", sw.ID, "err", err)
			}
		},
		Done: func(cancelled bool) {
			var err error
			if cancelled {
				err = sw.Cancel()
			} else {
				err = sw.Finish()
			}
			if err != nil {
				s.log.Error("finish failed", "campaign", sw.ID, "err", err)
			}
			s.log.Info("campaign finished", "campaign", sw.ID,
				"status", map[bool]string{false: "done", true: "cancelled"}[cancelled],
				"completed", sw.Completed(), "total", sw.Total())
			mActiveSweeps.Add(-1)
			s.mu.Lock()
			delete(s.owner, sw.ID)
			s.mu.Unlock()
			s.sweeps.Finish(sw.ID)
			sw.Close()
		},
	})
}

// Handler returns the service's HTTP routes: the shared campaign-resource
// handler set under /api/v1/campaigns.
func (s *Server) Handler() http.Handler { return Handler("campaign", s) }

// Store, Owns, Submit, Cancel, Sweep, Status and Health make the Server a
// Backend. It owns its whole store: every manifest in it is a campaign
// the server created or — left running by a crash or by cliffedge-campaign
// -store — resumes.
func (s *Server) Store() *store.Store { return s.st }

func (s *Server) Owns(string) bool { return true }

func (s *Server) Sweep(id string) *Sweep { return s.sweeps.Get(id) }

func (s *Server) Status(info Info, _ bool) any { return info }

func (s *Server) Health() (time.Time, map[string]any) {
	return s.started, map[string]any{
		"active_campaigns": s.sched.Active(),
		"queued_jobs":      s.sched.Queued(),
		"workers":          s.sched.Workers(),
	}
}

func (s *Server) Cancel(id string) bool {
	if !s.sched.Cancel(id) {
		return false
	}
	s.log.Info("cancel requested", "campaign", id)
	return true
}

// Submit admits the client (429 past MaxPerClient active campaigns),
// allocates the next campaign ID, persists the sweep and schedules it.
func (s *Server) Submit(spec cliffedge.CampaignSpec, client string) (*Sweep, map[string]any, error) {
	s.mu.Lock()
	active := 0
	for _, owner := range s.owner {
		if owner == client {
			active++
		}
	}
	if active >= s.cfg.MaxPerClient {
		s.mu.Unlock()
		mAdmissionRejects.Inc()
		return nil, nil, &HTTPError{Status: http.StatusTooManyRequests, Err: fmt.Errorf(
			"client %q already has %d active campaigns (limit %d)", client, active, s.cfg.MaxPerClient)}
	}
	id := fmt.Sprintf("c%06d", s.nextID)
	s.nextID++
	// Reserve the owner slot in the same critical section as the admission
	// check, so N racing submits from one client cannot all pass it.
	s.owner[id] = client
	s.mu.Unlock()

	extra, err := s.sweepOptions(id)
	var sw *Sweep
	if err == nil {
		sw, err = Create(s.st, id, client, s.cfg.now().UTC(), spec, extra...)
	}
	if err != nil {
		s.mu.Lock()
		delete(s.owner, id)
		s.mu.Unlock()
		return nil, nil, err
	}
	s.log.Info("campaign submitted", "campaign", id, "client", client, "jobs", sw.Total())
	s.start(sw, client)
	return sw, nil, nil
}
