package gen

import (
	"math/rand"
	"testing"

	"cliffedge/internal/graph"
	"cliffedge/internal/netem"
	"cliffedge/internal/region"
)

// TestFamilyDeterminism: the same seed must reproduce the same topology,
// bit for bit (compared via the DOT rendering, which covers nodes, edges
// and order) and the same description.
func TestFamilyDeterminism(t *testing.T) {
	for _, fam := range Families() {
		t.Run(fam.Name, func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				g1, d1 := fam.New(rand.New(rand.NewSource(seed)))
				g2, d2 := fam.New(rand.New(rand.NewSource(seed)))
				if d1 != d2 {
					t.Fatalf("seed %d: descriptions diverge: %q vs %q", seed, d1, d2)
				}
				if got, want := g1.DOT(d1, nil), g2.DOT(d2, nil); got != want {
					t.Fatalf("seed %d (%s): topologies diverge", seed, d1)
				}
			}
		})
	}
}

// TestFamilyConnectivity: every generated topology must be connected —
// isolated survivors would make border and termination reasoning vacuous.
func TestFamilyConnectivity(t *testing.T) {
	for _, fam := range Families() {
		t.Run(fam.Name, func(t *testing.T) {
			for seed := int64(0); seed < 25; seed++ {
				g, desc := fam.New(rand.New(rand.NewSource(seed)))
				if g.Len() == 0 {
					t.Fatalf("seed %d: empty topology %s", seed, desc)
				}
				if !g.IsConnectedSubset(graph.ToSet(g.Nodes())) {
					t.Fatalf("seed %d: %s is disconnected", seed, desc)
				}
			}
		})
	}
}

// TestRegistryLookups: names resolve, unknown names do not.
func TestRegistryLookups(t *testing.T) {
	for _, name := range FamilyNames() {
		if f, ok := FamilyByName(name); !ok || f.Name != name {
			t.Fatalf("FamilyByName(%q) = %v, %v", name, f.Name, ok)
		}
	}
	for _, name := range RegimeNames() {
		if r, ok := RegimeByName(name); !ok || r.Name != name {
			t.Fatalf("RegimeByName(%q) = %v, %v", name, r.Name, ok)
		}
	}
	if _, ok := FamilyByName("nope"); ok {
		t.Fatal("FamilyByName accepted unknown family")
	}
	if _, ok := RegimeByName("nope"); ok {
		t.Fatal("RegimeByName accepted unknown regime")
	}
}

// TestRegimeDeterminism: the same (family, regime, seed) triple must
// reproduce the same wave plan exactly.
func TestRegimeDeterminism(t *testing.T) {
	for _, fam := range Families() {
		for _, reg := range Regimes() {
			t.Run(fam.Name+"/"+reg.Name, func(t *testing.T) {
				for seed := int64(0); seed < 10; seed++ {
					draw := func() []Wave {
						rng := rand.New(rand.NewSource(seed))
						g, _ := fam.New(rng)
						return reg.Plan(rng, g)
					}
					w1, w2 := draw(), draw()
					if len(w1) != len(w2) {
						t.Fatalf("seed %d: wave counts diverge: %d vs %d", seed, len(w1), len(w2))
					}
					for i := range w1 {
						if w1[i].Time != w2[i].Time {
							t.Fatalf("seed %d wave %d: times diverge", seed, i)
						}
						if len(w1[i].Crash) != len(w2[i].Crash) {
							t.Fatalf("seed %d wave %d: sizes diverge", seed, i)
						}
						for k := range w1[i].Crash {
							if w1[i].Crash[k] != w2[i].Crash[k] {
								t.Fatalf("seed %d wave %d: members diverge", seed, i)
							}
						}
					}
				}
			})
		}
	}
}

// TestRegimeValidity: every plan drawn from every (family, regime) pair
// must satisfy the structural invariants of Validate plus the
// regime-specific guarantees documented on Regime.Plan.
func TestRegimeValidity(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	for _, fam := range Families() {
		for _, reg := range Regimes() {
			t.Run(fam.Name+"/"+reg.Name, func(t *testing.T) {
				for seed := int64(0); seed < seeds; seed++ {
					rng := rand.New(rand.NewSource(seed))
					g, desc := fam.New(rng)
					waves := reg.Plan(rng, g)
					if err := Validate(g, waves); err != nil {
						t.Fatalf("seed %d (%s): %v", seed, desc, err)
					}
					crashed := graph.NewBitset(g.Len())
					for w, wave := range waves {
						for _, n := range wave.Crash {
							crashed.Set(g.Index(n))
						}
						switch reg.Name {
						case "quiescent":
							if wave.Time != int64(w+1)*WaveSpacing {
								t.Fatalf("seed %d wave %d: time %d not quiescence-spaced", seed, w, wave.Time)
							}
							if !DisjointDomainBorders(g, crashed) {
								t.Fatalf("seed %d (%s): wave %d violates disjoint domain borders", seed, desc, w)
							}
						case "overlapping":
							if wave.Time != int64(w+1)*WaveSpacing {
								t.Fatalf("seed %d wave %d: time %d not quiescence-spaced", seed, w, wave.Time)
							}
						case "midprotocol":
							if w > 0 {
								gap := wave.Time - waves[w-1].Time
								if gap < 10 || gap > 60 {
									t.Fatalf("seed %d wave %d: racing gap %d outside [10, 60]", seed, w, gap)
								}
							}
						}
					}
					if reg.Racing != (reg.Name == "midprotocol") {
						t.Fatalf("regime %s: unexpected Racing=%v", reg.Name, reg.Racing)
					}
				}
			})
		}
	}
}

// TestValidateRejects: Validate must catch each invariant breach.
func TestValidateRejects(t *testing.T) {
	g := graph.Grid(4, 4)
	a, b := graph.GridID(0, 0), graph.GridID(0, 1)
	far := graph.GridID(3, 3)
	cases := []struct {
		name  string
		waves []Wave
	}{
		{"empty plan", nil},
		{"empty wave", []Wave{{Time: 1}}},
		{"non-increasing times", []Wave{{Time: 5, Crash: []graph.NodeID{a}}, {Time: 5, Crash: []graph.NodeID{b}}}},
		{"unknown node", []Wave{{Time: 1, Crash: []graph.NodeID{"ghost"}}}},
		{"double crash", []Wave{{Time: 1, Crash: []graph.NodeID{a}}, {Time: 2, Crash: []graph.NodeID{a}}}},
		{"disconnected wave", []Wave{{Time: 1, Crash: []graph.NodeID{a, far}}}},
	}
	for _, tc := range cases {
		if err := Validate(g, tc.waves); err == nil {
			t.Errorf("%s: Validate accepted invalid plan", tc.name)
		}
	}
	if err := Validate(g, []Wave{{Time: 1, Crash: []graph.NodeID{a, b}}}); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestBlobShapes: blobs are connected, alive-only and bounded by size;
// AdjacentBlob touches the crashed set when it can.
func TestBlobShapes(t *testing.T) {
	g := graph.Grid(6, 6)
	rng := rand.New(rand.NewSource(7))
	crashed := graph.NewBitset(g.Len())
	crashed.Set(g.Index(graph.GridID(2, 2)))
	crashed.Set(g.Index(graph.GridID(2, 3)))
	for i := 0; i < 50; i++ {
		size := 1 + rng.Intn(5)
		blob := Blob(rng, g, crashed, size)
		if len(blob) == 0 || len(blob) > size {
			t.Fatalf("Blob size %d outside (0, %d]", len(blob), size)
		}
		set := make(map[graph.NodeID]bool, len(blob))
		for _, idx := range blob {
			if crashed.Has(idx) {
				t.Fatal("Blob picked a crashed node")
			}
			set[g.ID(idx)] = true
		}
		if !g.IsConnectedSubset(set) {
			t.Fatal("Blob is disconnected")
		}

		adj := AdjacentBlob(rng, g, crashed, size)
		touches := false
		for _, idx := range adj {
			for _, m := range g.NeighborIndices(idx) {
				if crashed.Has(m) {
					touches = true
				}
			}
		}
		if !touches {
			t.Fatal("AdjacentBlob does not touch the crashed set")
		}
	}
}

// TestMaxBorderBlob: adversarial blobs are connected, alive-only, bounded
// by size, and on average grow a larger alive border than uniform blobs
// of the same size.
func TestMaxBorderBlob(t *testing.T) {
	g := graph.Grid(8, 8)
	crashed := graph.NewBitset(g.Len())
	border := func(blob []int32) int {
		set := graph.NewBitset(g.Len())
		for _, i := range blob {
			set.Set(i)
		}
		return region.NewFromIndicesScratch(g, set.AppendIndices(nil), set, nil, nil).BorderLen()
	}
	rng := rand.New(rand.NewSource(5))
	sumMax, sumUni := 0, 0
	for i := 0; i < 60; i++ {
		blob := MaxBorderBlob(rng, g, crashed, 6)
		if len(blob) == 0 || len(blob) > 6 {
			t.Fatalf("MaxBorderBlob size %d outside (0, 6]", len(blob))
		}
		set := make(map[graph.NodeID]bool, len(blob))
		for _, idx := range blob {
			if crashed.Has(idx) {
				t.Fatal("MaxBorderBlob picked a crashed node")
			}
			set[g.ID(idx)] = true
		}
		if !g.IsConnectedSubset(set) {
			t.Fatal("MaxBorderBlob is disconnected")
		}
		sumMax += border(blob)
		sumUni += border(Blob(rng, g, crashed, 6))
	}
	if sumMax <= sumUni {
		t.Fatalf("max-border growth not adversarial: border sum %d vs uniform %d", sumMax, sumUni)
	}
}

// TestUpgradePlanShape: upgrade plans are rolling mark waves (chunks of
// 1–2 nodes of one connected zone) optionally interleaved with one churn
// crash wave, all quiescence-spaced.
func TestUpgradePlanShape(t *testing.T) {
	reg, ok := RegimeByName("upgrade")
	if !ok {
		t.Fatal("upgrade regime missing")
	}
	if reg.Check != CheckNone {
		t.Fatalf("upgrade Check = %d, want CheckNone", reg.Check)
	}
	for _, fam := range Families() {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g, desc := fam.New(rng)
			waves := reg.Plan(rng, g)
			if err := Validate(g, waves); err != nil {
				t.Fatalf("%s seed %d: %v", desc, seed, err)
			}
			marked := make(map[graph.NodeID]bool)
			crashWaves := 0
			for w, wave := range waves {
				if wave.Time != int64(w+1)*WaveSpacing {
					t.Fatalf("%s seed %d: wave %d at t=%d not quiescence-spaced", desc, seed, w, wave.Time)
				}
				if len(wave.Crash) > 0 && len(wave.Mark) > 0 {
					t.Fatalf("%s seed %d: wave %d mixes crash and mark", desc, seed, w)
				}
				if len(wave.Crash) > 0 {
					crashWaves++
					continue
				}
				if len(wave.Mark) > 2 {
					t.Fatalf("%s seed %d: mark wave %d has %d nodes, want ≤ 2 (rolling)", desc, seed, w, len(wave.Mark))
				}
				for _, n := range wave.Mark {
					marked[n] = true
				}
			}
			if len(marked) == 0 {
				t.Fatalf("%s seed %d: upgrade plan marks nothing", desc, seed)
			}
			if crashWaves > 1 {
				t.Fatalf("%s seed %d: %d churn waves, want ≤ 1", desc, seed, crashWaves)
			}
			if !g.IsConnectedSubset(marked) {
				t.Fatalf("%s seed %d: marked zone disconnected", desc, seed)
			}
		}
	}
}

// TestRegimeNetModels: flaky and lossy regimes draw deterministic,
// well-formed network models of the right mode; the crash-only regimes
// draw none.
func TestRegimeNetModels(t *testing.T) {
	for _, reg := range Regimes() {
		m := reg.NetModel(rand.New(rand.NewSource(1)))
		switch reg.Name {
		case "flaky":
			if m == nil || m.Mode != netem.Retransmit {
				t.Fatalf("flaky model = %+v, want retransmit mode", m)
			}
			if reg.Check != CheckFull {
				t.Fatalf("flaky Check = %d, want CheckFull", reg.Check)
			}
		case "lossy":
			if m == nil || m.Mode != netem.RawLoss {
				t.Fatalf("lossy model = %+v, want raw-loss mode", m)
			}
			if m.Default.DupProb == 0 {
				t.Fatal("lossy model without duplication")
			}
			if reg.Check != CheckSafety {
				t.Fatalf("lossy Check = %d, want CheckSafety", reg.Check)
			}
		default:
			if m != nil {
				t.Fatalf("regime %s draws a net model", reg.Name)
			}
			continue
		}
		if err := m.Default.Validate(); err != nil {
			t.Fatalf("%s model invalid: %v", reg.Name, err)
		}
		m2 := reg.NetModel(rand.New(rand.NewSource(1)))
		if m.Mode != m2.Mode || m.Default != m2.Default {
			t.Fatalf("%s model draw not deterministic: %+v vs %+v", reg.Name, m, m2)
		}
	}
}
