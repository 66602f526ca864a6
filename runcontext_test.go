package cliffedge

import (
	"context"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"cliffedge/internal/campaign"
)

// TestRunContextHistoryIndependence is the contract of the run contexts
// campaign jobs reuse (runContext): a job's result must not depend on what
// ran before it on the same goroutine. Seeds 1–10 of the mixed grid run
// two ways — on one worker in grid order, and on four workers in a
// shuffled order where some jobs follow a job cut short by a cancelled
// context (which leaves a runner mid-run) or a live-engine job — and every
// job's RunStats must be identical: fingerprint, latency histogram,
// counters, JSON encoding. CI runs it with CLIFFEDGE_SHARDS set, which
// adds WithKernelShards to every run, so the sharded lanes of a reused
// runner are covered too.
func TestRunContextHistoryIndependence(t *testing.T) {
	camp, err := NewCampaign(WithSeedRange(1, 10), WithClusterOptions(envKernelShards(t)...))
	if err != nil {
		t.Fatal(err)
	}
	jobs := camp.Jobs()
	ctx := context.Background()

	inOrder := make(map[CampaignJob]CampaignRunStats, len(jobs))
	for _, j := range jobs {
		inOrder[j] = camp.RunJob(ctx, j)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	shuffled := append([]CampaignJob(nil), jobs...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, k int) {
		shuffled[i], shuffled[k] = shuffled[k], shuffled[i]
	})
	position := make(map[CampaignJob]int, len(shuffled))
	for k, j := range shuffled {
		position[j] = k
	}
	var mu sync.Mutex
	reordered := make(map[CampaignJob]CampaignRunStats, len(jobs))
	err = campaign.RunAll(ctx, 4, shuffled, func(ctx context.Context, j CampaignJob) CampaignRunStats {
		switch k := position[j]; {
		case k%5 == 0:
			// A sim job that stops at its first kernel event.
			if s := camp.RunJob(cancelled, j); s.Err == "" {
				t.Errorf("%v under a cancelled context: no error", j)
			}
		case k%17 == 1:
			live := j
			live.Cell.Engine = "live"
			if s := camp.RunJob(ctx, live); s.Err != "" {
				t.Errorf("%v: %s", live, s.Err)
			}
		}
		return camp.RunJob(ctx, j)
	}, func(j CampaignJob, s CampaignRunStats, _ bool) {
		mu.Lock()
		reordered[j] = s
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, j := range jobs {
		want, got := inOrder[j], reordered[j]
		if want.Err != "" {
			t.Fatalf("%v: %s", j, want.Err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("%v depends on what ran before it:\nin grid order: %s\nreordered:     %s", j, wantJSON, gotJSON)
		}
	}
}
