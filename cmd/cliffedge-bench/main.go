// Command cliffedge-bench regenerates every table and figure experiment:
// the paper-figure scenarios (F1a, F1b, F2, F3), the claim tables (T1
// locality, T2 region cost, T3 latency, T4 arbitration ablation, T5
// cascades, T6 stable-predicate extension, T7 round-count ablation) and
// the exhaustive model-checking suite (MC). Output is Markdown.
//
//	cliffedge-bench -exp all
//	cliffedge-bench -exp T1 -full
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cliffedge/internal/scenario"
)

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment id: all, F1a, F1b, F2, F3, T1..T7, MC")
		full = flag.Bool("full", false, "run the large variants (T1 up to N=102400 and a bigger global baseline)")
		seed = flag.Int64("seed", 1, "base seed")
	)
	flag.Parse()

	run := func(id string) bool {
		return *exp == "all" || strings.EqualFold(*exp, id)
	}
	ran := false
	if run("F1a") {
		ran = true
		f1a(*seed)
	}
	if run("F1b") {
		ran = true
		f1b()
	}
	if run("F2") {
		ran = true
		f2(*seed)
	}
	if run("F3") {
		ran = true
		f3()
	}
	if run("T1") {
		ran = true
		t1(*full, *seed)
	}
	if run("T2") {
		ran = true
		t2(*seed)
	}
	if run("T3") {
		ran = true
		t3(*seed)
	}
	if run("T4") {
		ran = true
		t4(*seed)
	}
	if run("T5") {
		ran = true
		t5(*seed)
	}
	if run("T6") {
		ran = true
		t6(*seed)
	}
	if run("T7") {
		ran = true
		t7(*seed)
	}
	if run("MC") {
		ran = true
		mcTable()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "cliffedge-bench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cliffedge-bench:", err)
	os.Exit(1)
}

func f1a(seed int64) {
	res, err := scenario.ExperimentF1a(seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println("## F1a — Fig. 1(a): two independent local agreements")
	fmt.Println()
	fmt.Printf("- deciders on F1 (Europe): %v\n", res.DecidersF1)
	fmt.Printf("- deciders on F2 (Pacific): %v\n", res.DecidersF2)
	fmt.Printf("- cross-hemisphere messages: %d (locality demands 0)\n", res.CrossHemisphere)
	fmt.Printf("- messages=%d bytes=%d participants=%d decided@t=%d\n",
		res.Stats.Messages, res.Stats.Bytes, res.Stats.Participants, res.Stats.DecideTime)
	fmt.Printf("- property check: %s\n\n", res.Report)
}

func f1b() {
	res, err := scenario.ExperimentF1b(100)
	if err != nil {
		fatal(err)
	}
	fmt.Println("## F1b — Fig. 1(b): paris crashes mid-agreement, views converge")
	fmt.Println()
	fmt.Println("| seeds | converged on F3 | early unanimous F1 | rejections | property violations |")
	fmt.Println("|------:|----------------:|-------------------:|-----------:|--------------------:|")
	fmt.Printf("| %d | %d | %d | %d | %d |\n\n",
		res.Seeds, res.ConvergedF3, res.EarlyF1, res.Rejections, res.Violations)
}

func f2(seed int64) {
	res, err := scenario.ExperimentF2(seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println("## F2 — Fig. 2: cluster of four adjacent faulty domains")
	fmt.Println()
	fmt.Printf("- decided views: %v\n", res.DecidedViews)
	fmt.Printf("- clusters=%d, cluster decided=%v (CD7)\n", res.Clusters, res.DecidedCluster)
	fmt.Printf("- messages=%d rejections=%d resets=%d\n",
		res.Stats.Messages, res.Stats.Rejections, res.Stats.Resets)
	fmt.Printf("- property check: %s\n\n", res.Report)
}

func f3() {
	res, err := scenario.ExperimentF3(50)
	if err != nil {
		fatal(err)
	}
	fmt.Println("## F3 — Fig. 3 / Thm 3: randomized overlapping-view stress")
	fmt.Println()
	fmt.Println("| seeds | decisions | overlapping decided pairs | CD violations |")
	fmt.Println("|------:|----------:|--------------------------:|--------------:|")
	fmt.Printf("| %d | %d | %d | %d |\n\n", res.Seeds, res.Decisions, res.Overlaps, res.Violations)
}

func t1(full bool, seed int64) {
	sides := []int{10, 20, 40, 80, 160}
	globalMax := 900
	if full {
		sides = append(sides, 320)
		globalMax = 1600
	}
	rows, err := scenario.ExperimentT1(sides, globalMax, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println("## T1 — Locality: fixed 3×3 crashed block, growing system")
	fmt.Println()
	fmt.Println("| N | cliff msgs | cliff bytes | cliff participants | cliff t_decide | global msgs | global bytes | global participants | global t_decide |")
	fmt.Println("|--:|-----------:|------------:|-------------------:|---------------:|------------:|-------------:|--------------------:|----------------:|")
	for _, r := range rows {
		g := func(v int) string {
			if r.GlobalSkipped {
				return "—"
			}
			return fmt.Sprint(v)
		}
		gt := "—"
		if !r.GlobalSkipped {
			gt = fmt.Sprint(r.GlobalDecideTime)
		}
		fmt.Printf("| %d | %d | %d | %d | %d | %s | %s | %s | %s |\n",
			r.N, r.CliffMsgs, r.CliffBytes, r.CliffParticipants, r.CliffDecideTime,
			g(r.GlobalMsgs), g(r.GlobalBytes), g(r.GlobalParticipants), gt)
	}
	fmt.Println()
}

func t2(seed int64) {
	rows, err := scenario.ExperimentT2(24, []int{1, 2, 3, 4, 5, 6, 7, 8}, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println("## T2 — Cost vs crashed-region size (24×24 grid, k×k block)")
	fmt.Println()
	fmt.Println("| k | region | border b | msgs | bytes | max round | t_decide | decisions |")
	fmt.Println("|--:|-------:|---------:|-----:|------:|----------:|---------:|----------:|")
	for _, r := range rows {
		fmt.Printf("| %d | %d | %d | %d | %d | %d | %d | %d |\n",
			r.K, r.RegionSize, r.Border, r.Msgs, r.Bytes, r.MaxRound, r.DecideTime, r.Decisions)
	}
	fmt.Println()
}

func t3(seed int64) {
	rows, err := scenario.ExperimentT3([]int64{2, 10, 50, 250}, []int64{2, 10, 50, 250}, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println("## T3 — Decision latency vs network and detector latency (12×12 grid, 3×3 block)")
	fmt.Println()
	fmt.Println("| net latency ≤ | fd latency ≤ | t_decide | msgs | resets |")
	fmt.Println("|--------------:|-------------:|---------:|-----:|-------:|")
	for _, r := range rows {
		fmt.Printf("| %d | %d | %d | %d | %d |\n", r.NetMax, r.FDMax, r.DecideTime, r.Msgs, r.Resets)
	}
	fmt.Println()
}

func t4(seed int64) {
	rows, err := scenario.ExperimentT4(25, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println("## T4 — Arbitration ablation (ranking/reject mechanism on vs off)")
	fmt.Println()
	fmt.Println("| workload | arbitration | runs | clusters decided | decisions | safety violations |")
	fmt.Println("|----------|------------:|-----:|-----------------:|----------:|------------------:|")
	for _, r := range rows {
		fmt.Printf("| %s | %v | %d | %d/%d | %d | %d |\n",
			r.Scenario, r.Arbitration, r.Runs, r.ClustersDecided, r.ClustersTotal,
			r.Decisions, r.SafetyViolations)
	}
	fmt.Println()
}

func t5(seed int64) {
	rows, err := scenario.ExperimentT5([]int{0, 1, 2, 3, 4, 5, 6, 7, 8}, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println("## T5 — Cascades: region keeps growing during agreement (9×9 grid)")
	fmt.Println()
	fmt.Println("| cascade depth | msgs | proposals | resets | rejections | decisions | t_decide |")
	fmt.Println("|--------------:|-----:|----------:|-------:|-----------:|----------:|---------:|")
	for _, r := range rows {
		fmt.Printf("| %d | %d | %d | %d | %d | %d | %d |\n",
			r.Depth, r.Msgs, r.Proposals, r.Resets, r.Rejections, r.Decisions, r.DecideTime)
	}
	fmt.Println()
}

func t6(seed int64) {
	rows, err := scenario.ExperimentT6(24, []int{1, 2, 3, 4, 5, 6}, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println("## T6 — Stable-predicate extension (§5): marked regions, cooperative detection")
	fmt.Println()
	fmt.Println("| k | region | border | msgs (total) | announce msgs | decisions | t_decide |")
	fmt.Println("|--:|-------:|-------:|-------------:|--------------:|----------:|---------:|")
	for _, r := range rows {
		fmt.Printf("| %d | %d | %d | %d | %d | %d | %d |\n",
			r.K, r.RegionSize, r.Border, r.Msgs, r.AnnounceMsg, r.Decisions, r.DecideTime)
	}
	fmt.Println()
}

func t7(seed int64) {
	rows, err := scenario.ExperimentT7(200, seed)
	if err != nil {
		fatal(err)
	}
	fmt.Println("## T7 — Round-count ablation: corrected |B| rounds vs Algorithm 1's literal |B|−1")
	fmt.Println()
	fmt.Println("| mode | runs | CD5 (uniformity) violations | decisions | avg final round |")
	fmt.Println("|------|-----:|----------------------------:|----------:|----------------:|")
	for _, r := range rows {
		fmt.Printf("| %s | %d | %d | %d | %.1f |\n",
			r.Mode, r.Runs, r.CD5Violations, r.Decisions, r.AvgRounds)
	}
	fmt.Println()
}

func mcTable() {
	rows, err := scenario.ExperimentMC()
	if err != nil {
		fatal(err)
	}
	fmt.Println("## MC — Bounded model checking: all interleavings of small scenarios")
	fmt.Println()
	fmt.Println("| scenario | rounds mode | states | terminal runs | truncated | violations | decided views |")
	fmt.Println("|----------|-------------|-------:|--------------:|-----------|-----------:|--------------:|")
	for _, r := range rows {
		mode := "corrected |B|"
		if r.Literal {
			mode = "literal |B|−1"
		}
		fmt.Printf("| %s | %s | %d | %d | %v | %d | %d |\n",
			r.Scenario, mode, r.States, r.Runs, r.Truncated, r.Violations, r.DecidedViews)
	}
	fmt.Println()
}
