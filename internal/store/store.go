package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cliffedge/internal/campaign"
)

// Campaign lifecycle statuses recorded in the manifest. A campaign found
// in StatusRunning at startup was interrupted (crash or shutdown) and is
// resumed; StatusCancelled means a client explicitly abandoned it, so a
// restart leaves it alone.
const (
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusCancelled = "cancelled"
)

// Manifest is the durable identity of a campaign: who submitted what,
// when, and where its sweep stands. Spec is kept as raw JSON so the store
// never needs to understand (or migrate) the spec schema.
type Manifest struct {
	ID      string          `json:"id"`
	Created time.Time       `json:"created"`
	Client  string          `json:"client,omitempty"`
	Status  string          `json:"status"`
	Spec    json.RawMessage `json:"spec"`
}

// Record is one completed run, the unit of resumable progress. Persisting
// (job, stats) pairs — rather than aggregator state — keeps the log a
// plain fact table: resume rebuilds the aggregator by re-adding records,
// so the merged report is computed by exactly the code an uninterrupted
// sweep uses.
type Record struct {
	Cell    campaign.CellKey  `json:"cell"`
	Seed    int64             `json:"seed"`
	Attempt int               `json:"attempt"`
	Stats   campaign.RunStats `json:"stats"`
}

// Job reassembles the record's job key.
func (r Record) Job() campaign.Job {
	return campaign.Job{Cell: r.Cell, Seed: r.Seed, Attempt: r.Attempt}
}

// Store is a directory of campaigns, one subdirectory per ID holding
// manifest.json, results.log and (after completion) report.json. All
// methods are safe for concurrent use on distinct campaigns; per-campaign
// callers serialise through Results' own lock and the manifest's
// atomic-rename writes.
type Store struct {
	dir string
}

// Open ensures dir exists and returns the store rooted there.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validID rejects anything that could escape the store directory or
// collide with the store's own filenames. IDs come from HTTP paths and
// CLI flags, so this is a security boundary, not a style check.
func validID(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("store: invalid campaign id %q", id)
	}
	for _, r := range id {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return fmt.Errorf("store: invalid campaign id %q", id)
		}
	}
	return nil
}

func (s *Store) campaignDir(id string) (string, error) {
	if err := validID(id); err != nil {
		return "", err
	}
	return filepath.Join(s.dir, id), nil
}

// Create allocates the campaign directory and writes its manifest. It
// fails if the ID already exists. Existence means "has a manifest":
// runtime configuration (TraceDir) may create the directory before the
// manifest lands, and a directory without a manifest is junk (see
// List), so uniqueness is anchored on the manifest file, not Mkdir.
func (s *Store) Create(m Manifest) error {
	dir, err := s.campaignDir(m.ID)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mpath := filepath.Join(dir, "manifest.json")
	if _, err := os.Lstat(mpath); err == nil {
		return fmt.Errorf("store: campaign %s already exists", m.ID)
	} else if !os.IsNotExist(err) {
		return err
	}
	return WriteJSONAtomic(mpath, m)
}

// Manifest reads the campaign's manifest.
func (s *Store) Manifest(id string) (Manifest, error) {
	dir, err := s.campaignDir(id)
	if err != nil {
		return Manifest{}, err
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("store: campaign %s: %w", id, err)
	}
	return m, nil
}

// SetStatus rewrites the manifest with a new lifecycle status.
func (s *Store) SetStatus(id, status string) error {
	m, err := s.Manifest(id)
	if err != nil {
		return err
	}
	m.Status = status
	dir, _ := s.campaignDir(id)
	return WriteJSONAtomic(filepath.Join(dir, "manifest.json"), m)
}

// List returns every campaign's manifest, sorted by ID. Entries whose
// manifest is missing or unreadable are skipped: a crash between Mkdir
// and the manifest write leaves a junk directory, not a broken store.
func (s *Store) List() ([]Manifest, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []Manifest
	for _, e := range entries {
		if !e.IsDir() || validID(e.Name()) != nil {
			continue
		}
		m, err := s.Manifest(e.Name())
		if err != nil {
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// WriteReport persists the rendered final report.
func (s *Store) WriteReport(id string, data []byte) error {
	dir, err := s.campaignDir(id)
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, "report.json"), data)
}

// Report reads the persisted final report.
func (s *Store) Report(id string) ([]byte, error) {
	dir, err := s.campaignDir(id)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(dir, "report.json"))
}

// TraceDir ensures the campaign's trace directory exists and returns its
// path. Frontends that persist per-run traces (one binary trace file per
// job, named campaign.Job.TraceName) point cliffedge.WithTraceDir here,
// so traces live in the campaign's directory, next to everything else it
// persisted. The store itself never reads trace files — they
// are bulk artifacts for cliffedge-trace and offline analysis, not part
// of the resumable result log.
func (s *Store) TraceDir(id string) (string, error) {
	dir, err := s.campaignDir(id)
	if err != nil {
		return "", err
	}
	td := filepath.Join(dir, "traces")
	if err := os.MkdirAll(td, 0o755); err != nil {
		return "", err
	}
	return td, nil
}

// Results is the campaign's append-only run log. Append is safe for
// concurrent use — results arrive from a worker pool.
type Results struct {
	mu  sync.Mutex
	seg *Segment
}

// OpenResults opens (creating if absent) the campaign's result log and
// replays every record already on disk. Undecodable records — possible
// only if the schema changed under an old log, since the segment layer
// already discarded torn or corrupt frames — abort the open rather than
// silently dropping progress.
func (s *Store) OpenResults(id string) (*Results, []Record, error) {
	dir, err := s.campaignDir(id)
	if err != nil {
		return nil, nil, err
	}
	seg, payloads, err := OpenSegment(filepath.Join(dir, "results.log"))
	if err != nil {
		return nil, nil, err
	}
	recs, err := decodePayloads(payloads)
	if err != nil {
		seg.Close()
		return nil, nil, fmt.Errorf("store: campaign %s: %w", id, err)
	}
	return &Results{seg: seg}, recs, nil
}

// DecodeRecords replays a stream of segment-log bytes — a results.log
// fetched over the network, or an offline copy — into records. Like
// OpenSegment it stops at the first torn or corrupt frame, so a log read
// while its writer is mid-append simply yields the clean prefix; unlike
// OpenSegment it never touches the filesystem. Undecodable payloads
// (schema drift, not corruption — the framing already screened that out)
// abort the decode.
func DecodeRecords(r io.Reader) ([]Record, error) {
	recs, _, err := DecodeRecordsN(r)
	return recs, err
}

// DecodeRecordsN is DecodeRecords that also reports how many bytes of r
// the decoded records occupied — the length of the clean prefix, always a
// frame boundary. A reader following a growing log keeps it as a cursor:
// the stream that starts at that offset of the same log decodes to exactly
// the records that came after. On error nothing was consumed.
func DecodeRecordsN(r io.Reader) ([]Record, int64, error) {
	payloads, clean, err := replay(r)
	if err != nil {
		return nil, 0, err
	}
	recs, err := decodePayloads(payloads)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	return recs, clean, nil
}

// decodePayloads turns replayed segment payloads into records; the error
// names the first payload that does not decode.
func decodePayloads(payloads [][]byte) ([]Record, error) {
	recs := make([]Record, len(payloads))
	for i, p := range payloads {
		if err := json.Unmarshal(p, &recs[i]); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	return recs, nil
}

// File validates id and returns the path of one of the campaign's files
// (e.g. "results.log", "shards.json") without creating anything. Layered
// stores — the fleet coordinator keeps its shard-assignment manifest next
// to the campaign's own files — use it to stay inside the store's
// one-directory-per-campaign layout.
func (s *Store) File(id, name string) (string, error) {
	dir, err := s.campaignDir(id)
	if err != nil {
		return "", err
	}
	return filepath.Join(dir, name), nil
}

// Append durably records one completed run.
func (r *Results) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seg.Append(payload)
}

// Close closes the underlying log.
func (r *Results) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seg.Close()
}

// WriteJSONAtomic marshals v (indented, for hand inspection) and installs
// it with a temp-file-plus-rename, the store's convention for every
// manifest-shaped file: readers never observe a partial document. Layered
// stores (the fleet coordinator's shard manifest) share it so all their
// metadata has the same crash behaviour.
func WriteJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}

// writeFileAtomic writes to a temp file in the target directory and
// renames it into place, so readers never observe a partial file.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}
