package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"cliffedge/internal/obs"
)

// TestMetricsAndHealthz drives one small campaign to completion and
// checks the two operational endpoints: /metrics must expose valid
// Prometheus text covering the instrumented layers with committed work
// counted — the served jobs in the campaign pool series too — and
// /healthz must carry the JSON status document while still answering 200
// for status-code-only probes.
func TestMetricsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), 2, 4)
	scrape := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics: %s", resp.Status)
		}
		samples, err := obs.ParseText(resp.Body)
		if err != nil {
			t.Fatalf("metrics do not parse: %v", err)
		}
		return samples
	}
	before := scrape()
	id, total := submitCampaign(t, ts.URL, "mx", 3)
	events := followSSE(t, ts.URL, id, 0)
	if events[len(events)-1].Type != "done" {
		t.Fatalf("campaign did not finish: %+v", events[len(events)-1])
	}

	samples := scrape()
	// Other tests of the package run jobs through the same process-global
	// registry: the pool series are checked as deltas over this campaign.
	for _, name := range []string{
		"cliffedge_campaign_jobs_completed_total",
		"cliffedge_campaign_job_duration_us_count",
	} {
		if got := samples[name] - before[name]; got < float64(total) {
			t.Errorf("%s grew by %g over a %d-job campaign, want >= %d", name, got, total, total)
		}
	}
	// The registry is process-global, so assert lower bounds, not equality.
	if got := samples["cliffedge_serve_jobs_committed_total"]; got < float64(total) {
		t.Errorf("jobs committed = %g, want >= %d", got, total)
	}
	if got := samples["cliffedge_sim_runs_total"]; got < float64(total) {
		t.Errorf("sim runs = %g, want >= %d", got, total)
	}
	if got := samples["cliffedge_store_appends_total"]; got < float64(total) {
		t.Errorf("store appends = %g, want >= %d", got, total)
	}
	if _, ok := samples["cliffedge_derived_msgs_per_border_node"]; !ok {
		t.Error("derived msgs-per-border-node gauge missing")
	}
	if _, ok := samples["cliffedge_derived_stall_rate"]; !ok {
		t.Error("derived stall-rate gauge missing")
	}
	found := false
	for k := range samples {
		if strings.HasPrefix(k, "cliffedge_http_requests_total{") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no cliffedge_http_requests_total series — InstrumentHTTP not wired")
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", hz.Status)
	}
	var doc struct {
		Status  string            `json:"status"`
		Build   map[string]string `json:"build"`
		Workers int               `json:"workers"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&doc); err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	if doc.Status != "ok" || doc.Workers != 2 {
		t.Fatalf("healthz doc = %+v", doc)
	}
	if doc.Build["go"] == "" {
		t.Fatalf("healthz build info missing go version: %+v", doc.Build)
	}
}
