// Command cliffedge-sim runs one cliff-edge consensus scenario and reports
// what happened: the decisions, the cost counters, and (optionally) the
// full event narrative, a Graphviz rendering, and the CD1–CD7 property
// report.
//
// Examples:
//
//	cliffedge-sim -topo grid:12,12 -crash block:3
//	cliffedge-sim -topo fig1 -crash fig1 -narrate
//	cliffedge-sim -topo ring:32 -crash nodes:r000007,r000008,r000009
//	cliffedge-sim -topo er:60,0.06 -crash random:2,8 -seed 7
//	cliffedge-sim -topo grid:8,8 -crash block:2 -live
//	cliffedge-sim -topo grid:256,256 -crash block:3 -stream -timeout 2m
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"cliffedge"
	"cliffedge/internal/check"
	"cliffedge/internal/graph"
	"cliffedge/internal/scenario"
	"cliffedge/internal/trace"
	"cliffedge/internal/viz"
)

// gridDims parses "grid:R,C" / "torus:R,C" specs for the ASCII map.
func gridDims(spec string) (rows, cols int, ok bool) {
	name, args, _ := strings.Cut(spec, ":")
	if name != "grid" && name != "torus" {
		return 0, 0, false
	}
	parts := strings.Split(args, ",")
	if len(parts) != 2 {
		return 0, 0, false
	}
	r, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	c, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return r, c, true
}

func main() {
	var (
		topoSpec  = flag.String("topo", "grid:8,8", "topology: grid:R,C torus:R,C ring:N line:N star:N tree:N,K complete:N chord:N er:N,P sw:N,K,B geo:N,R clustered:C,S,B,P fig1 fig2")
		crashSpec = flag.String("crash", "block:2", "failure: block:K nodes:a,b,c random:COUNT,MAXSIZE fig1 fig2")
		at        = flag.Int64("t", 10, "crash time (virtual ticks)")
		stagger   = flag.Int64("stagger", 0, "gap between successive crashes (0 = simultaneous)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		narrate   = flag.Bool("narrate", false, "print the full event trace")
		dot       = flag.Bool("dot", false, "print the topology in Graphviz DOT and exit")
		noCheck   = flag.Bool("nocheck", false, "skip the CD1–CD7 property verification")
		live      = flag.Bool("live", false, "run on the goroutine runtime instead of the deterministic simulator")
		gridMap   = flag.Bool("grid", false, "render an ASCII map of the outcome (grid topologies)")
		timeline  = flag.Bool("timeline", false, "render an activity timeline of the run")
		flows     = flag.Int("flows", 0, "show the N most talkative nodes")
		jsonOut   = flag.String("json", "", "write the trace as JSON Lines to this file")
		traceOut  = flag.String("trace", "", "write the trace in the binary format to this file (streams during the run, so it composes with -stream)")
		stream    = flag.Bool("stream", false, "print events as they happen and keep no trace in memory (constant-memory runs)")
		shards    = flag.Int("shards", 1, "simulator kernel shards: 1 = sequential, 0 = auto (one per crashed-region domain group), N ≥ 2 = stripe over N; the trace is byte-identical at any setting")
		timeout   = flag.Duration("timeout", 0, "wall-clock bound for the whole run (0 = none)")
	)
	flag.Parse()

	// Reject flag conflicts before any work: the post-hoc renderers need
	// the buffered trace that -stream deliberately drops.
	if *stream && (*jsonOut != "" || *gridMap || *timeline || *flows > 0 || *narrate) {
		fatal(fmt.Errorf("-stream keeps no trace; drop -narrate/-json/-grid/-timeline/-flows (stream already prints events live)"))
	}

	topo, err := buildTopo(*topoSpec)
	if err != nil {
		fatal(err)
	}
	victims, err := buildCrashes(topo, *topoSpec, *crashSpec, *seed)
	if err != nil {
		fatal(err)
	}
	if *dot {
		fmt.Print(cliffedge.DOT(topo, victims, *topoSpec))
		return
	}

	// One Cluster + Plan drives both engines; the checker and the -stream
	// narrator ride the observer stream, so -stream runs need no buffered
	// trace at all.
	opts := []cliffedge.Option{cliffedge.WithSeed(*seed), cliffedge.WithKernelShards(*shards)}
	if *live {
		opts = append(opts, cliffedge.WithEngine(cliffedge.Live()))
	}
	var online *check.Online
	if !*noCheck {
		online = check.NewOnline(topo)
		opts = append(opts, cliffedge.WithObserver(online.Observe))
	}
	if *stream {
		opts = append(opts, cliffedge.WithoutTraceBuffer(),
			cliffedge.WithObserver(func(e cliffedge.Event) { fmt.Println(e) }))
	}
	// The binary sink streams during the run (unlike -json, which renders
	// the buffered trace afterwards), so it composes with -stream.
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		traceFile = f
		opts = append(opts, cliffedge.WithTraceWriter(f))
	}
	cluster, err := cliffedge.New(topo, opts...)
	if err != nil {
		fatal(err)
	}

	plan := cliffedge.NewPlan()
	for i, n := range victims {
		plan.At(*at + int64(i)**stagger).Crash(n)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := cluster.Run(ctx, plan)
	if err != nil {
		fatal(err)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("binary trace written to %s\n", *traceOut)
	}

	if *narrate {
		fmt.Println("--- trace ---")
		if err := res.Narrative(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteJSONL(f, res.Events()); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (%d events)\n", *jsonOut, len(res.Events()))
	}

	fmt.Printf("topology %s: %d nodes, %d edges; crashed %d nodes\n",
		*topoSpec, topo.Len(), topo.NumEdges(), len(victims))
	if *gridMap {
		if rows, cols, ok := gridDims(*topoSpec); ok {
			fmt.Print(viz.GridMap(rows, cols, res.Events(), res.Crashed))
		} else {
			fmt.Fprintln(os.Stderr, "cliffedge-sim: -grid requires a grid/torus topology")
		}
	}
	if *timeline {
		fmt.Print(viz.Timeline(res.Events(), 60))
	}
	if *flows > 0 {
		fmt.Print(viz.FlowSummary(res.Events(), *flows))
	}
	fmt.Printf("decisions (%d):\n", len(res.Decisions))
	for _, d := range res.Decisions {
		fmt.Printf("  %-14s view=%s value=%q\n", d.Node, d.View, d.Value)
	}
	s := res.Stats
	fmt.Printf("stats: msgs=%d bytes=%d participants=%d rounds≤%d proposals=%d rejections=%d resets=%d\n",
		s.Messages, s.Bytes, s.Participants, s.MaxRound, s.Proposals, s.Rejections, s.Resets)
	fmt.Printf("time: decided@%d quiescent@%d\n", s.DecideTime, s.EndTime)

	if online != nil {
		rep := online.Report()
		fmt.Printf("properties: %s\n", rep)
		if !rep.Ok() {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cliffedge-sim:", err)
	os.Exit(2)
}

// buildTopo parses a topology spec like "grid:12,12".
func buildTopo(spec string) (*cliffedge.Topology, error) {
	name, args, _ := strings.Cut(spec, ":")
	num := func(i int) (int, error) {
		parts := strings.Split(args, ",")
		if i >= len(parts) {
			return 0, fmt.Errorf("topology %q: missing argument %d", spec, i+1)
		}
		return strconv.Atoi(strings.TrimSpace(parts[i]))
	}
	fnum := func(i int) (float64, error) {
		parts := strings.Split(args, ",")
		if i >= len(parts) {
			return 0, fmt.Errorf("topology %q: missing argument %d", spec, i+1)
		}
		return strconv.ParseFloat(strings.TrimSpace(parts[i]), 64)
	}
	switch name {
	case "grid", "torus":
		r, err := num(0)
		if err != nil {
			return nil, err
		}
		c, err := num(1)
		if err != nil {
			return nil, err
		}
		if name == "grid" {
			return cliffedge.Grid(r, c), nil
		}
		return cliffedge.Torus(r, c), nil
	case "ring", "line", "star", "complete", "chord":
		n, err := num(0)
		if err != nil {
			return nil, err
		}
		switch name {
		case "ring":
			return cliffedge.Ring(n), nil
		case "line":
			return cliffedge.Line(n), nil
		case "star":
			return cliffedge.Star(n), nil
		case "complete":
			return cliffedge.Complete(n), nil
		default:
			return cliffedge.Chord(n), nil
		}
	case "tree":
		n, err := num(0)
		if err != nil {
			return nil, err
		}
		k, err := num(1)
		if err != nil {
			return nil, err
		}
		return cliffedge.Tree(n, k), nil
	case "er":
		n, err := num(0)
		if err != nil {
			return nil, err
		}
		p, err := fnum(1)
		if err != nil {
			return nil, err
		}
		return cliffedge.ErdosRenyi(n, p, 1), nil
	case "sw":
		n, err := num(0)
		if err != nil {
			return nil, err
		}
		k, err := num(1)
		if err != nil {
			return nil, err
		}
		b, err := fnum(2)
		if err != nil {
			return nil, err
		}
		return cliffedge.SmallWorld(n, k, b, 1), nil
	case "geo":
		n, err := num(0)
		if err != nil {
			return nil, err
		}
		r, err := fnum(1)
		if err != nil {
			return nil, err
		}
		return cliffedge.RandomGeometric(n, r, 1), nil
	case "clustered":
		c, err := num(0)
		if err != nil {
			return nil, err
		}
		s, err := num(1)
		if err != nil {
			return nil, err
		}
		b, err := num(2)
		if err != nil {
			return nil, err
		}
		p, err := fnum(3)
		if err != nil {
			return nil, err
		}
		return cliffedge.Clustered(c, s, b, p, 1), nil
	case "fig1":
		g, _, _ := cliffedge.Fig1()
		return g, nil
	case "fig2":
		g, _ := cliffedge.Fig2()
		return g, nil
	default:
		return nil, fmt.Errorf("unknown topology %q", spec)
	}
}

// buildCrashes parses a failure spec like "block:3" against the topology.
func buildCrashes(topo *cliffedge.Topology, topoSpec, spec string, seed int64) ([]cliffedge.NodeID, error) {
	name, args, _ := strings.Cut(spec, ":")
	switch name {
	case "block":
		k, err := strconv.Atoi(args)
		if err != nil {
			return nil, fmt.Errorf("crash %q: %w", spec, err)
		}
		tname, targs, _ := strings.Cut(topoSpec, ":")
		if tname != "grid" && tname != "torus" {
			return nil, fmt.Errorf("crash block:K requires a grid/torus topology")
		}
		dims := strings.Split(targs, ",")
		r, _ := strconv.Atoi(dims[0])
		c, _ := strconv.Atoi(dims[1])
		return cliffedge.CenterBlock(r, c, k), nil
	case "nodes":
		var out []cliffedge.NodeID
		for _, s := range strings.Split(args, ",") {
			n := cliffedge.NodeID(strings.TrimSpace(s))
			if !topo.Has(n) {
				return nil, fmt.Errorf("unknown node %q", n)
			}
			out = append(out, n)
		}
		return out, nil
	case "random":
		parts := strings.Split(args, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("crash %q: want random:COUNT,MAXSIZE", spec)
		}
		count, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, err
		}
		maxSize, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, err
		}
		if count < 0 || maxSize < 1 {
			return nil, fmt.Errorf("crash %q: want COUNT ≥ 0 and MAXSIZE ≥ 1", spec)
		}
		rng := rand.New(rand.NewSource(seed))
		seen := map[cliffedge.NodeID]bool{}
		var out []cliffedge.NodeID
		for i := 0; i < count; i++ {
			for _, n := range scenario.RandomConnectedRegion(topo, rng, 1+rng.Intn(maxSize)) {
				if !seen[n] {
					seen[n] = true
					out = append(out, n)
				}
			}
		}
		return out, nil
	case "fig1":
		_, f1, f2 := graph.Fig1()
		return append(append([]cliffedge.NodeID{}, f1...), f2...), nil
	case "fig2":
		_, domains := graph.Fig2()
		var out []cliffedge.NodeID
		for _, d := range domains {
			out = append(out, d...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unknown crash spec %q", spec)
	}
}
