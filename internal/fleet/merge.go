package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"cliffedge"
	"cliffedge/internal/campaign"
	"cliffedge/internal/store"
)

// UnionSpec merges the specs of a fleet's shards (or of N independently
// persisted stores) back into the spec of the whole sweep. The specs
// must be the same campaign modulo the seed slice — identical topology,
// regime, engine and repeat lists — and their seed ranges must tile a
// contiguous interval (overlaps and exact duplicates are fine, the
// record merge dedups; gaps are not, because the merged report would
// silently cover less than its spec claims).
func UnionSpec(specs []cliffedge.CampaignSpec) (cliffedge.CampaignSpec, error) {
	if len(specs) == 0 {
		return cliffedge.CampaignSpec{}, fmt.Errorf("fleet: no specs to merge")
	}
	base := specs[0]
	for i, s := range specs[1:] {
		if !slices.Equal(s.Topologies, base.Topologies) ||
			!slices.Equal(s.Regimes, base.Regimes) ||
			!slices.Equal(s.Engines, base.Engines) ||
			s.Repeats != base.Repeats {
			return cliffedge.CampaignSpec{}, fmt.Errorf(
				"fleet: spec %d is a different campaign (grid axes or repeats differ)", i+1)
		}
	}
	ranges := make([][2]int64, len(specs)) // [start, end)
	for i, s := range specs {
		if s.Seeds < 1 {
			return cliffedge.CampaignSpec{}, fmt.Errorf("fleet: spec %d has an empty seed range", i)
		}
		ranges[i] = [2]int64{s.SeedStart, s.SeedStart + int64(s.Seeds)}
	}
	sort.Slice(ranges, func(i, j int) bool { return ranges[i][0] < ranges[j][0] })
	end := ranges[0][1]
	for _, r := range ranges[1:] {
		if r[0] > end {
			return cliffedge.CampaignSpec{}, fmt.Errorf(
				"fleet: seed ranges leave a gap at seed %d", end)
		}
		if r[1] > end {
			end = r[1]
		}
	}
	base.SeedStart = ranges[0][0]
	base.Seeds = int(end - ranges[0][0])
	base.Workers = 0
	return base, nil
}

// MergeRecords merges a record multiset into the report of the campaign:
// records are ordered deterministically, deduplicated by job key, checked
// against the grid for membership and completeness, and folded into a
// fresh aggregator. The output is a pure function of the record multiset
// — any permutation, any partition into shards, any duplication of
// records (a re-assigned shard re-delivering what its lost predecessor
// already had) yields the identical report, byte for byte once encoded.
//
// Duplicates with differing payloads — impossible for deterministic sim
// cells, where a job's record is a pure function of its key, but
// legitimate for live cells re-run on another worker — resolve to the
// record with the smallest encoding, an arbitrary but order-independent
// choice.
func MergeRecords(camp *cliffedge.Campaign, recs []store.Record) (*campaign.Report, error) {
	grid := camp.Grid()

	type keyed struct {
		rec   store.Record
		enc   []byte
		index int
	}
	ordered := make([]keyed, 0, len(recs))
	for i, rec := range recs {
		index, inGrid := grid.Index(rec.Job())
		if !inGrid {
			return nil, fmt.Errorf("fleet: record %d (%s seed %d attempt %d) is outside the spec's grid",
				i, rec.Cell, rec.Seed, rec.Attempt)
		}
		enc, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		ordered = append(ordered, keyed{rec, enc, index})
	}
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i].rec.Job(), ordered[j].rec.Job()
		if a != b {
			return jobLess(a, b)
		}
		return bytes.Compare(ordered[i].enc, ordered[j].enc) < 0
	})

	agg := campaign.NewAggregator()
	done := make([]bool, grid.Len())
	covered := 0
	for _, k := range ordered {
		if done[k.index] {
			continue
		}
		done[k.index] = true
		covered++
		agg.Add(k.rec.Job(), k.rec.Stats)
	}
	if covered != grid.Len() {
		return nil, fmt.Errorf("fleet: merge covers %d of %d grid jobs — refusing to render an incomplete report",
			covered, grid.Len())
	}
	return agg.Report(), nil
}

// jobLess is campaign's job order (cell, then seed, then attempt) — the
// deterministic merge order and the order Grid emits.
func jobLess(a, b campaign.Job) bool {
	if a.Cell != b.Cell {
		if a.Cell.Topology != b.Cell.Topology {
			return a.Cell.Topology < b.Cell.Topology
		}
		if a.Cell.Regime != b.Cell.Regime {
			return a.Cell.Regime < b.Cell.Regime
		}
		return a.Cell.Engine < b.Cell.Engine
	}
	if a.Seed != b.Seed {
		return a.Seed < b.Seed
	}
	return a.Attempt < b.Attempt
}

// MergeDirs is the offline fleet-merge path (`cliffedge-campaign -merge`):
// each dir is one campaign directory (manifest.json + results.log — the
// layout both cliffedged workers and `cliffedge-campaign -store` write).
// Specs merge through UnionSpec, records through MergeRecords, so N
// worker stores that together cover a spec reduce to the report a single
// box would have produced for it.
func MergeDirs(dirs []string, extra ...cliffedge.CampaignOption) (*campaign.Report, cliffedge.CampaignSpec, error) {
	var specs []cliffedge.CampaignSpec
	var recs []store.Record
	for _, dir := range dirs {
		m, dirRecs, err := readCampaignDir(dir)
		if err != nil {
			return nil, cliffedge.CampaignSpec{}, err
		}
		var spec cliffedge.CampaignSpec
		if err := json.Unmarshal(m.Spec, &spec); err != nil {
			return nil, cliffedge.CampaignSpec{}, fmt.Errorf("fleet: %s: bad spec: %w", dir, err)
		}
		specs = append(specs, spec)
		recs = append(recs, dirRecs...)
	}
	union, err := UnionSpec(specs)
	if err != nil {
		return nil, cliffedge.CampaignSpec{}, err
	}
	camp, err := cliffedge.NewCampaignFromSpec(union, extra...)
	if err != nil {
		return nil, cliffedge.CampaignSpec{}, err
	}
	rep, err := MergeRecords(camp, recs)
	if err != nil {
		return nil, cliffedge.CampaignSpec{}, err
	}
	return rep, union, nil
}

// readCampaignDir loads one campaign directory's manifest and clean
// record prefix without taking the store's append lock — offline merge
// reads stores that may still be owned by a worker.
func readCampaignDir(dir string) (store.Manifest, []store.Record, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return store.Manifest{}, nil, err
	}
	var m store.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return store.Manifest{}, nil, fmt.Errorf("fleet: %s: bad manifest: %w", dir, err)
	}
	f, err := os.Open(filepath.Join(dir, "results.log"))
	if err != nil {
		return store.Manifest{}, nil, err
	}
	defer f.Close()
	recs, err := store.DecodeRecords(f)
	if err != nil {
		return store.Manifest{}, nil, fmt.Errorf("fleet: %s: %w", dir, err)
	}
	return m, recs, nil
}
