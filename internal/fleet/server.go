package fleet

import (
	"net/http"
	"strings"
	"time"

	"cliffedge"
	"cliffedge/internal/serve"
	"cliffedge/internal/store"
)

// Server is the coordinator's HTTP face: serve's campaign-resource handler
// set mounted under /api/v1/fleets, with the coordinator as its backend —
// so clients written for one box drive a fleet by swapping /campaigns for
// /fleets, and every route, document and SSE rule is the worker's own.
type Server struct {
	co *Coordinator
}

// NewServer wraps a coordinator.
func NewServer(co *Coordinator) *Server { return &Server{co: co} }

// Handler returns the coordinator's route table.
func (s *Server) Handler() http.Handler { return serve.Handler("fleet", s) }

// The methods below make the Server a serve.Backend.

func (s *Server) Store() *store.Store { return s.co.Store() }

// Owns hides worker-style campaigns in a directory shared with a worker.
func (s *Server) Owns(id string) bool { return strings.HasPrefix(id, "f") }

func (s *Server) Submit(spec cliffedge.CampaignSpec, client string) (*serve.Sweep, map[string]any, error) {
	f, err := s.co.Submit(spec, client)
	if err != nil {
		return nil, nil, err
	}
	return f.sw, map[string]any{"shards": len(f.Shards())}, nil
}

func (s *Server) Cancel(id string) bool {
	m, err := s.co.Store().Manifest(id)
	f := s.co.Fleet(id)
	if err != nil || m.Status != store.StatusRunning || f == nil {
		return false
	}
	f.Cancel()
	return true
}

func (s *Server) Sweep(id string) *serve.Sweep {
	if f := s.co.Fleet(id); f != nil {
		return f.sw
	}
	return nil
}

// fleetInfo is the status document of one fleet: a campaign's, plus why
// leasing gave up (if it did) and — on the single-fleet view — the shard
// table.
type fleetInfo struct {
	serve.Info
	Failure string  `json:"failure,omitempty"`
	Shards  []Shard `json:"shards,omitempty"`
}

func (s *Server) Status(info serve.Info, detail bool) any {
	out := fleetInfo{Info: info}
	if f := s.co.Fleet(info.ID); f != nil {
		out.Failure = f.Failure()
		if detail {
			out.Shards = f.Shards()
		}
	}
	return out
}

func (s *Server) Health() (time.Time, map[string]any) {
	s.co.wmu.Lock()
	lost := 0
	for _, wk := range s.co.workers {
		if wk.lost {
			lost++
		}
	}
	workers := len(s.co.workers)
	s.co.wmu.Unlock()
	return s.co.started, map[string]any{
		"active_fleets": mActiveFleets.Load(),
		"workers":       workers,
		"workers_lost":  lost,
	}
}
