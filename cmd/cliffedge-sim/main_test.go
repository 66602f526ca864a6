package main

import (
	"testing"

	"cliffedge"
)

// TestBuildCrashesRejectsBadSpecs requires every malformed -crash spec to
// come back as an error, never as a panic or a silent empty crash set.
func TestBuildCrashesRejectsBadSpecs(t *testing.T) {
	topo := cliffedge.Grid(6, 6)
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
	} {
		t.Run(tc.crash+"@"+tc.topo, func(t *testing.T) {
			victims, err := buildCrashes(topo, tc.topo, tc.crash, 1)
			if err == nil {
				t.Fatalf("buildCrashes(%q) = %v, want an error", tc.crash, victims)
			}
		})
	}
}

// TestBuildCrashesRandom pins the valid edges of random:COUNT,MAXSIZE: a
// zero count crashes nothing, and MAXSIZE 1 crashes single nodes.
func TestBuildCrashesRandom(t *testing.T) {
	topo := cliffedge.Grid(6, 6)
	victims, err := buildCrashes(topo, "grid:6,6", "random:0,1", 1)
	if err != nil || len(victims) != 0 {
		t.Fatalf("random:0,1 = %v, %v; want no victims", victims, err)
	}
	victims, err = buildCrashes(topo, "grid:6,6", "random:3,1", 1)
	if err != nil || len(victims) < 1 || len(victims) > 3 {
		t.Fatalf("random:3,1 = %v, %v; want 1 to 3 victims", victims, err)
	}
	for _, n := range victims {
		if !topo.Has(n) {
			t.Errorf("victim %q is not in the topology", n)
		}
	}
}
