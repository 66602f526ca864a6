// Command cliffedge-sim runs one cliff-edge consensus scenario and reports
// what happened: the decisions, the cost counters, and (optionally) the
// full event narrative, a Graphviz rendering, and the CD1–CD7 property
// report.
//
// A spec is NAME or NAME:ARG,…; a malformed one is rejected before the
// run. Sizes are integers ≥ 1, and BETA and P are reals in [0, 1]:
//
//	-topo   grid:R,C torus:R,C ring:N line:N star:N complete:N chord:N tree:N,K
//	        er:N,P sw:N,K,BETA geo:N,RADIUS clustered:C,S,BRIDGES,P fig1 fig2
//	-crash  block:K nodes:A,B,… random:COUNT,MAXSIZE fig1 fig2
//
// RADIUS is a real ≥ 0, BRIDGES and COUNT are integers ≥ 0, and block:K
// crashes the centred K×K block of a grid or torus, so K ≤ min(R, C).
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
	"cmp"
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"

	"cliffedge"
	"cliffedge/internal/check"
	"cliffedge/internal/scenario"
	"cliffedge/internal/trace"
	"cliffedge/internal/viz"
)

func main() {
	var (
		topoSpec  = flag.String("topo", "grid:8,8", topoUsage())
		crashSpec = flag.String("crash", "block:2", "failure: block:K (1 ≤ K ≤ min(R, C) of a grid or torus), nodes:A,B,…, random:COUNT,MAXSIZE (COUNT ≥ 0, MAXSIZE ≥ 1), fig1 or fig2 (with the same -topo)")
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
		exitOn(fmt.Errorf("-stream keeps no trace; drop -narrate/-json/-grid/-timeline/-flows (stream already prints events live)"))
	}

	topo, err := buildTopo(*topoSpec)
	exitOn(err)
	victims, err := buildCrashes(topo, *crashSpec, *seed)
	exitOn(err)
	if *dot {
		fmt.Print(cliffedge.DOT(topo.Topology, victims, *topoSpec))
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
		online = check.NewOnline(topo.Topology)
		opts = append(opts, cliffedge.WithObserver(online.Observe))
	}
	if *stream {
		opts = append(opts, cliffedge.WithoutTraceBuffer(),
			cliffedge.WithObserver(func(e cliffedge.Event) { fmt.Println(e) }))
	}
	// The binary sink streams during the run (unlike -json, which renders
	// the buffered trace afterwards), so it composes with -stream. A run
	// that fails removes the file, so an existing one holds a whole trace.
	var traceFile *os.File
	failRun := exitOn
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		exitOn(err)
		failRun = func(err error) {
			if err != nil {
				traceFile.Close()
				os.Remove(*traceOut)
				exitOn(err)
			}
		}
		opts = append(opts, cliffedge.WithTraceWriter(traceFile))
	}
	cluster, err := cliffedge.New(topo.Topology, opts...)
	failRun(err)

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
	failRun(err)
	if traceFile != nil {
		failRun(traceFile.Close())
		fmt.Printf("binary trace written to %s\n", *traceOut)
	}

	if *narrate {
		fmt.Println("--- trace ---")
		exitOn(res.Narrative(os.Stdout))
		fmt.Println()
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		exitOn(err)
		exitOn(cmp.Or(trace.WriteJSONL(f, res.Events()), f.Close()))
		fmt.Printf("trace written to %s (%d events)\n", *jsonOut, len(res.Events()))
	}

	fmt.Printf("topology %s: %d nodes, %d edges; crashed %d nodes\n",
		*topoSpec, topo.Len(), topo.NumEdges(), len(victims))
	if *gridMap {
		if topo.rows > 0 {
			fmt.Print(viz.GridMap(topo.rows, topo.cols, res.Events(), res.Crashed))
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

// exitOn reports a non-nil err and exits with status 2.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cliffedge-sim:", err)
		os.Exit(2)
	}
}

// kinds maps each argument kind of the spec grammar to its range.
var kinds = map[byte]string{'N': "an integer ≥ 1", 'C': "an integer ≥ 0", 'P': "a real in [0, 1]", 'R': "a real ≥ 0"}

// topologies is the -topo grammar: each name with its arguments, one kind
// letter per argument, and the constructor that takes the checked values.
var topologies = []struct {
	name, args, kinds string
	build             func(v []arg) *cliffedge.Topology
}{
	{"grid", "R,C", "NN", func(v []arg) *cliffedge.Topology { return cliffedge.Grid(v[0].n, v[1].n) }},
	{"torus", "R,C", "NN", func(v []arg) *cliffedge.Topology { return cliffedge.Torus(v[0].n, v[1].n) }},
	{"ring", "N", "N", func(v []arg) *cliffedge.Topology { return cliffedge.Ring(v[0].n) }},
	{"line", "N", "N", func(v []arg) *cliffedge.Topology { return cliffedge.Line(v[0].n) }},
	{"star", "N", "N", func(v []arg) *cliffedge.Topology { return cliffedge.Star(v[0].n) }},
	{"complete", "N", "N", func(v []arg) *cliffedge.Topology { return cliffedge.Complete(v[0].n) }},
	{"chord", "N", "N", func(v []arg) *cliffedge.Topology { return cliffedge.Chord(v[0].n) }},
	{"tree", "N,K", "NN", func(v []arg) *cliffedge.Topology { return cliffedge.Tree(v[0].n, v[1].n) }},
	{"er", "N,P", "NP", func(v []arg) *cliffedge.Topology { return cliffedge.ErdosRenyi(v[0].n, v[1].x, 1) }},
	{"sw", "N,K,BETA", "NNP", func(v []arg) *cliffedge.Topology { return cliffedge.SmallWorld(v[0].n, v[1].n, v[2].x, 1) }},
	{"geo", "N,RADIUS", "NR", func(v []arg) *cliffedge.Topology { return cliffedge.RandomGeometric(v[0].n, v[1].x, 1) }},
	{"clustered", "C,S,BRIDGES,P", "NNCP", func(v []arg) *cliffedge.Topology { return cliffedge.Clustered(v[0].n, v[1].n, v[2].n, v[3].x, 1) }},
	{"fig1", "", "", func([]arg) *cliffedge.Topology { g, _, _ := cliffedge.Fig1(); return g }},
	{"fig2", "", "", func([]arg) *cliffedge.Topology { g, _ := cliffedge.Fig2(); return g }},
}

// topoUsage renders the -topo help from the table.
func topoUsage() string {
	usage := "topology, one of:"
	for _, t := range topologies {
		var ranges []string
		for i, name := range strings.Split(t.args, ",")[:len(t.kinds)] {
			ranges = append(ranges, name+" "+kinds[t.kinds[i]])
		}
		spec := strings.TrimSuffix(t.name+":"+t.args, ":")
		usage += "\n  " + strings.TrimSpace(fmt.Sprintf("%-23s %s", spec, strings.Join(ranges, ", ")))
	}
	return usage
}

// arg is one checked spec argument: n for an integer kind, x for a real one.
type arg struct {
	n int
	x float64
}

// splitSpec splits "NAME:ARG,…" into NAME and its space-trimmed arguments
// (none without ':'). It is the one place a spec is split.
func splitSpec(spec string) (name string, args []string) {
	name, rest, ok := strings.Cut(spec, ":")
	if ok {
		args = strings.Split(rest, ",")
		for i := range args {
			args[i] = strings.TrimSpace(args[i])
		}
	}
	return name, args
}

// parseArgs checks args against argKinds, one kinds letter per argument:
// their count, and each one's type and range.
func parseArgs(spec string, args []string, argKinds string) ([]arg, error) {
	if len(args) != len(argKinds) {
		return nil, fmt.Errorf("spec %q: want %d arguments, got %d", spec, len(argKinds), len(args))
	}
	vals := make([]arg, len(args))
	for i, a := range args {
		n, errN := strconv.Atoi(a)
		x, errX := strconv.ParseFloat(a, 64)
		var ok bool
		switch argKinds[i] {
		case 'N':
			ok = errN == nil && n >= 1
		case 'C':
			ok = errN == nil && n >= 0
		case 'P':
			ok = errX == nil && x >= 0 && x <= 1
		case 'R':
			ok = errX == nil && x >= 0 && x <= math.MaxFloat64
		}
		if !ok {
			return nil, fmt.Errorf("spec %q: argument %d is %q, want %s", spec, i+1, a, kinds[argKinds[i]])
		}
		vals[i] = arg{n, x}
	}
	return vals, nil
}

// topology is a built -topo spec: the graph and a grid's or torus's size.
type topology struct {
	*cliffedge.Topology
	rows, cols int
}

// buildTopo parses a topology spec like "grid:12,12" and builds it.
func buildTopo(spec string) (topology, error) {
	name, args := splitSpec(spec)
	for _, t := range topologies {
		if t.name == name {
			v, err := parseArgs(spec, args, t.kinds)
			if err != nil {
				return topology{}, err
			}
			topo := topology{Topology: t.build(v)}
			if name == "grid" || name == "torus" {
				topo.rows, topo.cols = v[0].n, v[1].n
			}
			return topo, nil
		}
	}
	return topology{}, fmt.Errorf("unknown topology %q", spec)
}

// crashKinds is the -crash grammar but for nodes:A,B,…, which takes node IDs.
var crashKinds = map[string]string{"block": "N", "random": "CN", "fig1": "", "fig2": ""}

// buildCrashes parses a failure spec like "block:3" against the topology. A
// spec naming a node outside it, such as fig1 without -topo fig1, is an error.
func buildCrashes(topo topology, spec string, seed int64) (out []cliffedge.NodeID, err error) {
	name, args := splitSpec(spec)
	var v []arg
	if argKinds, ok := crashKinds[name]; ok {
		if v, err = parseArgs(spec, args, argKinds); err != nil {
			return nil, err
		}
	} else if name != "nodes" {
		return nil, fmt.Errorf("unknown crash spec %q", spec)
	}
	switch name {
	case "nodes":
		if len(args) == 0 {
			return nil, fmt.Errorf("crash %q: want nodes:A,B,…", spec)
		}
		for _, a := range args {
			out = append(out, cliffedge.NodeID(a))
		}
	case "block":
		if v[0].n > min(topo.rows, topo.cols) {
			return nil, fmt.Errorf("crash %q needs a grid or torus of at least K×K", spec)
		}
		out = cliffedge.CenterBlock(topo.rows, topo.cols, v[0].n)
	case "random":
		rng := rand.New(rand.NewSource(seed))
		seen := map[cliffedge.NodeID]bool{}
		for range v[0].n {
			for _, n := range scenario.RandomConnectedRegion(topo.Topology, rng, 1+rng.Intn(v[1].n)) {
				if !seen[n] {
					seen[n] = true
					out = append(out, n)
				}
			}
		}
	case "fig1":
		_, f1, f2 := cliffedge.Fig1()
		out = slices.Concat(f1, f2)
	case "fig2":
		_, domains := cliffedge.Fig2()
		out = slices.Concat(domains...)
	}
	for _, n := range out {
		if !topo.Has(n) {
			return nil, fmt.Errorf("crash %q: node %q is not in the topology", spec, n)
		}
	}
	return out, nil
}
