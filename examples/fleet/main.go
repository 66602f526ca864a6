// Fleet: distributed campaigns.
//
// This example runs a whole fleet in-process: three cliffedged workers
// and one coordinator, each on a loopback port with its own store. The
// coordinator splits the submitted spec's seed range into shards, runs
// each shard on a worker as an ordinary campaign over the same HTTP API
// a human would use, and merges the workers' result logs incrementally
// into one sweep — so the merged SSE feed below is exactly-once per run
// and the final report is byte-identical to a single box running the
// whole spec (the example checks this, by running the spec locally too).
//
// Kill a worker mid-fleet and its shards are re-leased to the survivors
// after -worker-timeout; kill the coordinator and a restart on the same
// store resumes without re-running committed shards. Both are proven in
// internal/fleet's tests and the fleet-smoke CI job; this example keeps
// every process alive and just shows the happy path.
//
//	go run ./examples/fleet
package main

import (
	"bytes"
	"context"
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
	"cliffedge/internal/fleet"
	"cliffedge/internal/serve"
)

func main() {
	quiet := slog.New(slog.DiscardHandler)

	// Three ordinary campaign workers, each with its own store.
	var workerURLs []string
	for i := 0; i < 3; i++ {
		dir, err := os.MkdirTemp("", "cliffedge-fleet-worker-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		srv, err := serve.NewServer(dir, serve.Config{
			Workers: 2,
			Logger:  quiet, // keep the example's output clean
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
		workerURLs = append(workerURLs, "http://"+ln.Addr().String())
	}
	fmt.Printf("3 workers up: %s\n", strings.Join(workerURLs, ", "))

	// The coordinator: shards fleets across the workers, merges their
	// logs into its own store.
	coordDir, err := os.MkdirTemp("", "cliffedge-fleet-coord-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(coordDir)
	co, err := fleet.NewCoordinator(coordDir, fleet.Config{
		Workers: workerURLs,
		Shards:  6,
		Logger:  quiet,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer co.Shutdown()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, fleet.NewServer(co).Handler())
	base := "http://" + ln.Addr().String()
	fmt.Printf("coordinator on %s\n\n", base)

	// Submit one spec; the coordinator splits its 24 seeds into 6 shards.
	spec := `{"topologies": ["ring"], "regimes": ["quiescent"],
	          "engines": ["sim"], "seed_start": 1, "seeds": 24, "repeats": 1}`
	resp, err := http.Post(base+"/api/v1/fleets", "application/json", strings.NewReader(spec))
	if err != nil {
		log.Fatal(err)
	}
	var created struct {
		ID     string `json:"id"`
		Total  int    `json:"total"`
		Shards int    `json:"shards"`
	}
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	fmt.Printf("submitted fleet %s: %d runs in %d shards\n", created.ID, created.Total, created.Shards)

	// Follow the merged SSE feed: one result event per run, regardless of
	// which worker ran it, with dense sequence numbers.
	resp, err = http.Get(base + "/api/v1/fleets/" + created.ID + "/events")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	err = serve.ReadSSE(resp.Body, func(ev serve.Event) bool {
		switch ev.Type {
		case "result":
			if ev.Completed%6 == 0 || ev.Completed == ev.Total {
				fmt.Printf("  merged %2d/%2d runs\n", ev.Completed, ev.Total)
			}
		case "done":
			fmt.Printf("fleet %s done: %d runs, %d errors, %d violations\n",
				created.ID, ev.Completed, ev.TotalErrors, ev.TotalViolations)
		}
		return !ev.Terminal()
	})
	if err != nil {
		log.Fatal(err)
	}

	// The shard table shows where each seed slice ran.
	resp, err = http.Get(base + "/api/v1/fleets/" + created.ID)
	if err != nil {
		log.Fatal(err)
	}
	var status struct {
		Shards []fleet.Shard `json:"shards"`
	}
	json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	fmt.Println("\nshard assignments:")
	for _, sh := range status.Shards {
		fmt.Printf("  shard %d: seeds %2d-%2d  ran on %s as %s\n",
			sh.Index, sh.SeedStart, sh.SeedStart+int64(sh.Seeds)-1, sh.Worker, sh.RemoteID)
	}

	// Byte-identity: the merged report equals a single box running the
	// whole spec itself.
	resp, err = http.Get(base + "/api/v1/fleets/" + created.ID + "/report.json")
	if err != nil {
		log.Fatal(err)
	}
	merged := new(bytes.Buffer)
	if _, err := merged.ReadFrom(resp.Body); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()

	camp, err := cliffedge.NewCampaign(
		cliffedge.WithTopologies("ring"),
		cliffedge.WithRegimes("quiescent"),
		cliffedge.WithCampaignEngines("sim"),
		cliffedge.WithSeedRange(1, 24),
		cliffedge.WithRepeats(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := camp.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	single := new(bytes.Buffer)
	if err := rep.WriteJSON(single); err != nil {
		log.Fatal(err)
	}
	if bytes.Equal(merged.Bytes(), single.Bytes()) {
		fmt.Printf("\nmerged report is byte-identical to the single-box run (%d bytes)\n", merged.Len())
	} else {
		fmt.Println("\nBUG: merged report differs from the single-box run")
		os.Exit(1)
	}
}
