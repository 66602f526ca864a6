// Serve: campaigns as a service.
//
// This example runs the whole cliffedged stack in-process: it starts the
// campaign server on a loopback port, submits a sweep over HTTP exactly
// as a remote client would, follows the per-run SSE progress stream, and
// fetches the final report. The server persists every completed run to a
// store directory — kill it at any point and a restart resumes the sweep
// where it left off, with a byte-identical final report.
//
// The live-engine cells run with a small live tick (WithLiveTick), so
// the network model's delays are realised as actual wall-clock pauses
// inside each run rather than just counted — which is why the live cells
// take visibly longer than their simulated twins.
//
//	go run ./examples/serve
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"cliffedge"
	"cliffedge/internal/serve"
)

func main() {
	dir, err := os.MkdirTemp("", "cliffedge-serve-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The server side: a shared fair-share pool over a persistent store,
	// with live-engine runs realising network delays in wall time.
	srv, err := serve.NewServer(dir, serve.Config{
		Workers:        4,
		ClusterOptions: []cliffedge.Option{cliffedge.WithLiveTick(100 * time.Microsecond)},
		Logger:         slog.New(slog.DiscardHandler), // keep the example's output clean
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Shutdown()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv.Handler())
	base := "http://" + ln.Addr().String()
	fmt.Printf("server listening on %s\n\n", base)

	// The client side: submit a spec, follow the stream, fetch the report.
	spec := `{"topologies": ["ring"], "regimes": ["quiescent"],
	          "engines": ["sim", "live"], "seed_start": 1, "seeds": 4, "repeats": 1}`
	resp, err := http.Post(base+"/api/v1/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		log.Fatal(err)
	}
	var created struct {
		ID    string `json:"id"`
		Total int    `json:"total"`
	}
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	fmt.Printf("submitted campaign %s: %d runs\n", created.ID, created.Total)

	resp, err = http.Get(base + "/api/v1/campaigns/" + created.ID + "/events")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	err = serve.ReadSSE(resp.Body, func(ev serve.Event) bool {
		switch ev.Type {
		case "result":
			fmt.Printf("  [%2d/%2d] %-22s seed %-2d  %2d decisions, %d violations\n",
				ev.Completed, ev.Total, ev.Job.Cell, ev.Job.Seed, ev.Decisions, ev.Violations)
		case "done":
			fmt.Printf("\ncampaign %s done: %d runs, %d errors, %d violations\n",
				created.ID, ev.Completed, ev.TotalErrors, ev.TotalViolations)
		}
		return !ev.Terminal()
	})
	if err != nil {
		log.Fatal(err)
	}

	var report cliffedge.CampaignReport
	resp, err = http.Get(base + "/api/v1/campaigns/" + created.ID + "/report.json")
	if err != nil {
		log.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&report)
	resp.Body.Close()
	fmt.Println("\nper-cell latency (engine-time p50/p99) from the fetched report:")
	for _, c := range report.Cells {
		fmt.Printf("  %-22s p50=%-4d p99=%-4d mean_msgs=%.0f\n",
			c.Cell, c.LatencyP50, c.LatencyP99, c.MeanMsgs)
	}
}
