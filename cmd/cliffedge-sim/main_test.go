package main

import (
	"errors"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run the command itself, so tests can
// drive main, exit status and all, without building it separately.
const runMainEnv = "CLIFFEDGE_SIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mustTopo builds a topology spec the test relies on.
func mustTopo(t *testing.T, spec string) topology {
	t.Helper()
	topo, err := buildTopo(spec)
	if err != nil {
		t.Fatalf("buildTopo(%q): %v", spec, err)
	}
	return topo
}

// TestBuildCrashesRejectsBadSpecs requires every malformed -crash spec to
// come back as an error, never as a panic, a silent empty crash set or a
// node outside the topology.
func TestBuildCrashesRejectsBadSpecs(t *testing.T) {
	for _, tc := range []struct{ topo, crash string }{
		{"grid:6,6", "random:2,0"}, // MAXSIZE 0 once reached rand.Intn(0)
		{"grid:6,6", "random:2,-3"},
		{"grid:6,6", "random:-1,2"},
		{"grid:6,6", "random:2"},
		{"grid:6,6", "random:x,2"},
		{"grid:6,6", "random:2,x"},
		{"grid:6,6", "block:x"},
		{"ring:36", "block:2"},
		{"grid:6,6", "nodes:nosuch"},
		{"grid:6,6", "bogus"},
		{"grid:6,6", "block:0"}, // once crashed nothing
		{"grid:6,6", "block:-1"},
		{"grid:6,6", "block:7"}, // once named nodes outside the grid
		{"grid:6,6", "fig1"},
		{"fig2", "fig1"},
		{"grid:6,6", "nodes"},
		{"grid:6,6", "block:2,2"},
	} {
		t.Run(tc.crash+"@"+tc.topo, func(t *testing.T) {
			victims, err := buildCrashes(mustTopo(t, tc.topo), tc.crash, 1)
			if err == nil {
				t.Fatalf("buildCrashes(%q) = %v, want an error", tc.crash, victims)
			}
		})
	}
}

// TestBuildTopoRejectsBadSpecs requires every malformed -topo spec to come
// back as an error naming the spec, never as a panic or a quietly
// different topology.
func TestBuildTopoRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"geo:-1,0.5",          // once panicked in makeslice
		"clustered:2,0,1,0.5", // once panicked in rand.Intn
		"grid:3,3,3",          // once built a 3×3 grid
		"grid:3",
		"grid:1.5,2",
		"er:10,2", // once built a complete graph
		"er:10,NaN",
		"geo:10,Inf",
		"ring:0",
		"fig1:1",
		"bogus:1",
	} {
		t.Run(spec, func(t *testing.T) {
			topo, err := buildTopo(spec)
			if err == nil {
				t.Fatalf("buildTopo(%q) built %d nodes, want an error", spec, topo.Len())
			}
			if !strings.Contains(err.Error(), spec) {
				t.Errorf("error %q does not name the spec", err)
			}
		})
	}
}

// TestBuildCrashesRandom pins the valid edges of random:COUNT,MAXSIZE: a
// zero count crashes nothing, and MAXSIZE 1 crashes single nodes.
func TestBuildCrashesRandom(t *testing.T) {
	topo := mustTopo(t, "grid:6,6")
	victims, err := buildCrashes(topo, "random:0,1", 1)
	if err != nil || len(victims) != 0 {
		t.Fatalf("random:0,1 = %v, %v; want no victims", victims, err)
	}
	victims, err = buildCrashes(topo, "random:3,1", 1)
	if err != nil || len(victims) < 1 || len(victims) > 3 {
		t.Fatalf("random:3,1 = %v, %v; want 1 to 3 victims", victims, err)
	}
	for _, n := range victims {
		if !topo.Has(n) {
			t.Errorf("victim %q is not in the topology", n)
		}
	}
}

// TestBuildCrashesBlockEdges pins block:K at both ends of 1 ≤ K ≤ min(R, C).
func TestBuildCrashesBlockEdges(t *testing.T) {
	topo := mustTopo(t, "torus:6,9")
	for _, k := range []int{1, 6} {
		spec := "block:" + strconv.Itoa(k)
		victims, err := buildCrashes(topo, spec, 1)
		if err != nil || len(victims) != k*k {
			t.Fatalf("%s = %d victims, %v; want %d", spec, len(victims), err, k*k)
		}
	}
}

// docCommand matches one cliffedge-sim command line in the package doc or
// in a README bullet.
var docCommand = regexp.MustCompile("(?m)^(?://\t|- `go run ./cmd/)cliffedge-sim ([^`\n]*)")

// TestDocCommandsParse requires every cliffedge-sim command in the package
// doc and in the README's "Commands and examples" to parse.
func TestDocCommandsParse(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, examples, ok := strings.Cut(string(readme), "\n## Commands and examples\n")
	if !ok {
		t.Fatal(`README has no "Commands and examples" section`)
	}
	examples, _, _ = strings.Cut(examples, "\n## ")
	cmds := append(docCommand.FindAllStringSubmatch(string(src), -1), docCommand.FindAllStringSubmatch(examples, -1)...)
	if len(cmds) < 7 {
		t.Fatalf("found %d commands, want the 6 of the package doc and the README's", len(cmds))
	}
	for _, m := range cmds {
		topoSpec, crashSpec := "grid:8,8", "block:2" // the flag defaults
		args := strings.Fields(m[1])
		for i := 0; i+1 < len(args); i++ {
			switch args[i] {
			case "-topo":
				topoSpec = args[i+1]
			case "-crash":
				crashSpec = args[i+1]
			}
		}
		topo, err := buildTopo(topoSpec)
		if err == nil {
			_, err = buildCrashes(topo, crashSpec, 1)
		}
		if err != nil {
			t.Errorf("%s: %v", m[0], err)
		}
	}
}

// TestTraceFileRemovedOnRunError runs the command and requires a run that
// fails after -trace created its file to remove it, while a run that
// succeeds leaves a whole trace.
func TestTraceFileRemovedOnRunError(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		exit int
	}{
		{"ok", nil, 0},
		{"run", []string{"-timeout", "1ns"}, 2}, // the deadline passes before the first event
		{"new", []string{"-shards", "-1"}, 2},   // cliffedge.New rejects the option
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.bin")
			cmd := exec.Command(os.Args[0], append([]string{"-topo", "grid:12,12", "-crash", "block:3", "-trace", path}, tc.args...)...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			out, err := cmd.CombinedOutput()
			if cmd.ProcessState == nil {
				t.Fatal(err)
			}
			if code := cmd.ProcessState.ExitCode(); code != tc.exit {
				t.Fatalf("exit %d, want %d:\n%s", code, tc.exit, out)
			}
			fi, err := os.Stat(path)
			switch {
			case tc.exit == 0 && (err != nil || fi.Size() == 0):
				t.Fatalf("successful run left no trace: %v", err)
			case tc.exit != 0 && !errors.Is(err, fs.ErrNotExist):
				t.Fatalf("failed run left %s behind (stat: %v)", path, err)
			}
		})
	}
}

// FuzzParseSpec feeds arbitrary spec and kinds strings to the spec parser.
// It must never panic, and an accepted spec has one value per kind, each in
// its kind's range. Only the parser runs: no topology is built.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range [][2]string{
		{"grid:12,12", "NN"}, {"er:60,0.06", "NP"}, {"geo:-1,0.5", "NR"}, {"geo:3,Inf", "NR"},
		{"clustered:2,0,1,0.5", "NNCP"}, {"random:0,8", "CN"}, {"fig1", ""}, {"sw: 9 ,2,NaN", "NNP"},
		{"block:1e3", "N"}, {"nodes:a,,b", "XYZ"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, spec, argKinds string) {
		_, args := splitSpec(spec)
		vals, err := parseArgs(spec, args, argKinds)
		if err != nil {
			return
		}
		if len(vals) != len(argKinds) {
			t.Fatalf("parseArgs(%q, %q) = %d values", spec, argKinds, len(vals))
		}
		for i, v := range vals {
			var ok bool
			switch argKinds[i] {
			case 'N':
				ok = v.n >= 1
			case 'C':
				ok = v.n >= 0
			case 'P':
				ok = v.x >= 0 && v.x <= 1
			case 'R':
				ok = v.x >= 0 && !math.IsInf(v.x, 1)
			}
			if !ok {
				t.Fatalf("parseArgs(%q, %q): argument %d = %+v is out of range", spec, argKinds, i+1, v)
			}
		}
	})
}
