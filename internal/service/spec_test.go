package service

import (
	"strings"
	"testing"
)

func mustCanon(t *testing.T, spec JobSpec) JobSpec {
	t.Helper()
	c, err := spec.Canonicalize()
	if err != nil {
		t.Fatalf("Canonicalize(%+v): %v", spec, err)
	}
	return c
}

func TestCanonicalizeDefaults(t *testing.T) {
	c := mustCanon(t, JobSpec{Alg: AlgSimple, D: 3, N: 8})
	if c.B != 4 || c.K != 1 || c.Seed != 1 || c.Indexing != IndexingBlockedSnake {
		t.Errorf("defaults not filled: %+v", c)
	}
	// Idempotent: canonicalizing the canonical form is a fixed point.
	if c2 := mustCanon(t, c); c2 != c {
		t.Errorf("Canonicalize not idempotent: %+v != %+v", c2, c)
	}
	// A spec with the defaults spelled out canonicalizes (and hashes)
	// identically to one relying on the zero values.
	explicit := mustCanon(t, JobSpec{Alg: AlgSimple, D: 3, N: 8, B: 4, K: 1, Seed: 1, Indexing: IndexingBlockedSnake})
	if explicit != c || explicit.Key() != c.Key() {
		t.Errorf("explicit defaults canonicalize differently: %+v vs %+v", explicit, c)
	}

	if r := mustCanon(t, JobSpec{Alg: AlgRoute, D: 2, N: 8}); r.Perm != "random" {
		t.Errorf("route perm default = %q, want random", r.Perm)
	}
	if sel := mustCanon(t, JobSpec{Alg: AlgSelect, D: 2, N: 8}); sel.Target != 32 {
		t.Errorf("select target default = %d, want N/2 = 32", sel.Target)
	}
	if ts := mustCanon(t, JobSpec{Alg: AlgTorusSort, D: 2, N: 8}); !ts.Torus {
		t.Error("torussort did not force torus")
	}
	// The fault seed is canonicalized away when there is no fault plan.
	a := mustCanon(t, JobSpec{Alg: AlgSimple, D: 2, N: 8, FaultSeed: 99})
	b := mustCanon(t, JobSpec{Alg: AlgSimple, D: 2, N: 8})
	if a.Key() != b.Key() {
		t.Error("fault seed changed the key of a fault-free spec")
	}
}

func TestCanonicalizeTopology(t *testing.T) {
	// The canonical form always names its topology explicitly, and the
	// legacy Torus flag stays consistent with it.
	if c := mustCanon(t, JobSpec{Alg: AlgSimple, D: 3, N: 8}); c.Topology != TopologyMesh {
		t.Errorf("mesh default topology = %q", c.Topology)
	}
	if c := mustCanon(t, JobSpec{Alg: AlgTorusSort, D: 3, N: 8}); c.Topology != TopologyTorus || !c.Torus {
		t.Errorf("torussort topology = %q torus=%t", c.Topology, c.Torus)
	}
	// topology=torus is the same spec as torus=true: one canonical form,
	// one cache key.
	byFlag := mustCanon(t, JobSpec{Alg: AlgSimple, D: 2, N: 8, Torus: true})
	byTopo := mustCanon(t, JobSpec{Alg: AlgSimple, D: 2, N: 8, Topology: TopologyTorus})
	if byFlag != byTopo || byFlag.Key() != byTopo.Key() {
		t.Errorf("torus spellings canonicalize differently: %+v vs %+v", byFlag, byTopo)
	}

	c := mustCanon(t, JobSpec{Alg: AlgCliqueRoute, N: 64, K: 3})
	if c.Topology != TopologyClique || c.D != 1 || c.K != 3 || c.Seed != 1 ||
		c.Indexing != IndexingNone || c.Perm != "random" || c.B != 0 {
		t.Errorf("clique canonical form: %+v", c)
	}
	if c2 := mustCanon(t, c); c2 != c {
		t.Errorf("clique Canonicalize not idempotent: %+v != %+v", c2, c)
	}
	if c.ShapeKey() != "clique/64" {
		t.Errorf("clique shape key = %q", c.ShapeKey())
	}
	if c.Topo().N() != 64 || c.Topo().Diameter() != 1 {
		t.Errorf("clique Topo: %v", c.Topo())
	}
	// topology=clique on the spec is redundant but accepted.
	if c2 := mustCanon(t, JobSpec{Alg: AlgCliqueRoute, Topology: TopologyClique, N: 64, K: 3}); c2 != c {
		t.Errorf("explicit clique topology canonicalizes differently: %+v", c2)
	}
	// Clique keys are distinct across n and k.
	other := mustCanon(t, JobSpec{Alg: AlgCliqueRoute, N: 64, K: 4})
	if c.Key() == other.Key() {
		t.Error("clique specs with different k share a cache key")
	}
}

func TestCanonicalizeRejects(t *testing.T) {
	bad := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"no alg", JobSpec{D: 2, N: 8}, "missing alg"},
		{"unknown alg", JobSpec{Alg: "quicksort", D: 2, N: 8}, "unknown alg"},
		{"dim", JobSpec{Alg: AlgSimple, D: 9, N: 4}, "out of range"},
		{"engine arena", JobSpec{Alg: AlgSimple, D: 6, N: 32}, "int32 arena"},
		{"copy on torus", JobSpec{Alg: AlgCopy, D: 2, N: 8, Torus: true}, "mesh algorithm"},
		{"block side", JobSpec{Alg: AlgSimple, D: 2, N: 8, B: 3}, "must divide"},
		{"k on copy", JobSpec{Alg: AlgCopy, D: 2, N: 8, K: 2}, "only k=1"},
		{"indexing", JobSpec{Alg: AlgSimple, D: 2, N: 8, Indexing: "hilbert"}, "unknown indexing"},
		{"perm on sort", JobSpec{Alg: AlgSimple, D: 2, N: 8, Perm: "random"}, "alg=route only"},
		{"bad perm", JobSpec{Alg: AlgRoute, D: 2, N: 8, Perm: "butterfly"}, "unknown perm"},
		{"target on sort", JobSpec{Alg: AlgSimple, D: 2, N: 8, Target: 3}, "alg=select only"},
		{"target range", JobSpec{Alg: AlgSelect, D: 2, N: 8, Target: 64}, "out of range"},
		{"fault rate", JobSpec{Alg: AlgSimple, D: 2, N: 8, Faults: 1.5}, "out of range"},
		{"odd blocks", JobSpec{Alg: AlgSimple, D: 2, N: 9, B: 3}, "even"},
		{"unknown topology", JobSpec{Alg: AlgSimple, D: 2, N: 8, Topology: "hypercube"}, "unknown topology"},
		{"mesh topology with torus flag", JobSpec{Alg: AlgSimple, D: 2, N: 8, Topology: TopologyMesh, Torus: true}, "conflicts"},
		{"sort on clique", JobSpec{Alg: AlgSimple, D: 2, N: 8, Topology: TopologyClique}, "alg=cliqueroute"},
		{"cliqueroute on mesh", JobSpec{Alg: AlgCliqueRoute, N: 64, Topology: TopologyMesh}, "runs on the clique"},
		{"clique torus", JobSpec{Alg: AlgCliqueRoute, N: 64, Torus: true}, "no torus variant"},
		{"clique dim", JobSpec{Alg: AlgCliqueRoute, D: 2, N: 64}, "flat"},
		{"clique too small", JobSpec{Alg: AlgCliqueRoute, N: 1}, "out of range"},
		{"clique engine links", JobSpec{Alg: AlgCliqueRoute, N: 40000}, "int16 link-id space"},
		{"clique negative k", JobSpec{Alg: AlgCliqueRoute, N: 64, K: -1}, "out of range"},
		{"policy on route", JobSpec{Alg: AlgRoute, D: 2, N: 8, Policy: "dimorder"}, "alg=greedyroute only"},
		{"classes on sort", JobSpec{Alg: AlgSimple, D: 2, N: 8, Classes: "zero"}, "alg=greedyroute only"},
		{"bad policy", JobSpec{Alg: AlgGreedyRoute, D: 2, N: 8, Policy: "xy"}, "unknown policy"},
		{"bad classes", JobSpec{Alg: AlgGreedyRoute, D: 2, N: 8, Classes: "all"}, "unknown classes"},
		{"real on route", JobSpec{Alg: AlgRoute, D: 2, N: 8, RealLocalSort: true}, "sorts and select only"},
		{"alt on greedyroute", JobSpec{Alg: AlgGreedyRoute, D: 2, N: 8, AltEstimator: true}, "sorts and select only"},
		{"k on route", JobSpec{Alg: AlgRoute, D: 2, N: 8, K: 2}, "only k=1"},
		{"block side on shear", JobSpec{Alg: AlgShear, D: 2, N: 8, B: 4}, "not alg=shear"},
		{"faults on shear", JobSpec{Alg: AlgShear, D: 2, N: 8, Faults: 0.5}, "not alg=shear"},
		{"patience on shear", JobSpec{Alg: AlgShear, D: 2, N: 8, Patience: 10}, "not alg=shear"},
		{"faults on oddeven", JobSpec{Alg: AlgOddEven, D: 2, N: 8, Faults: 0.1}, "not alg=oddeven"},
		{"patience on oddeven", JobSpec{Alg: AlgOddEven, D: 2, N: 8, Patience: -1}, "not alg=oddeven"},
		{"side too small", JobSpec{Alg: AlgSimple, D: 2, N: 1}, "must be ≥ 2"},
		{"negative k", JobSpec{Alg: AlgSimple, D: 2, N: 8, K: -1}, "must be ≥ 1"},
		{"policy on clique", JobSpec{Alg: AlgCliqueRoute, N: 64, Policy: "greedy"}, "alg=greedyroute only"},
		{"clique block side", JobSpec{Alg: AlgCliqueRoute, N: 64, B: 4}, "mesh/torus algorithms only"},
		{"clique indexing", JobSpec{Alg: AlgCliqueRoute, N: 64, Indexing: IndexingBlockedSnake}, "no meaning on the clique"},
		{"clique perm", JobSpec{Alg: AlgCliqueRoute, N: 64, Perm: "reversal"}, "mesh notions"},
		{"clique target", JobSpec{Alg: AlgCliqueRoute, N: 64, Target: 3}, "alg=select only"},
	}
	for _, tc := range bad {
		if _, err := tc.spec.Canonicalize(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCanonicalizeSkipsCeilings: the admission ceilings bound what the
// service accepts, not what a spec means, so Canonicalize (the path of
// in-process callers such as cmd/meshsort) accepts specs above them.
func TestCanonicalizeSkipsCeilings(t *testing.T) {
	for _, spec := range []JobSpec{
		{Alg: AlgCliqueRoute, N: 1000, K: 2},
		{Alg: AlgCliqueRoute, N: 64, K: MaxCliqueK + 1},
		{Alg: AlgGreedyRoute, D: 2, N: 128},
		{Alg: AlgTraffic, D: 2, N: 8, Inject: "window:2000000"},
	} {
		mustCanon(t, spec)
		if _, err := spec.admit(); err == nil {
			t.Errorf("admit accepted %+v, which is over a ceiling", spec)
		}
	}
}

// TestCanonicalizeNewFields pins the canonical forms of the fields the
// baselines brought along: greedyroute's class default is explicit,
// and the sort switches survive canonicalization.
func TestCanonicalizeNewFields(t *testing.T) {
	g := mustCanon(t, JobSpec{Alg: AlgGreedyRoute, D: 2, N: 8})
	if g.Classes != "local" || g.Policy != "" || g.Perm != "random" || g.B != 4 {
		t.Errorf("greedyroute canonical form: %+v", g)
	}
	if c2 := mustCanon(t, g); c2 != g {
		t.Errorf("greedyroute Canonicalize not idempotent: %+v != %+v", c2, g)
	}
	for _, alg := range []string{AlgOddEven, AlgShear} {
		c := mustCanon(t, JobSpec{Alg: alg, D: 2, N: 8})
		if c.B != 0 || c.Indexing != IndexingNone || c.K != 1 {
			t.Errorf("%s canonical form: %+v", alg, c)
		}
	}
	plain := mustCanon(t, JobSpec{Alg: AlgSimple, D: 2, N: 8})
	real := mustCanon(t, JobSpec{Alg: AlgSimple, D: 2, N: 8, RealLocalSort: true})
	alt := mustCanon(t, JobSpec{Alg: AlgSimple, D: 2, N: 8, AltEstimator: true})
	if plain.Key() == real.Key() || plain.Key() == alt.Key() || real.Key() == alt.Key() {
		t.Error("realLocalSort/altEstimator not separated in the cache key")
	}
}

// TestKeyPinned pins cache keys computed before the spec gained the
// policy, classes, realLocalSort and altEstimator fields: a key change
// would orphan every journaled and cached result.
func TestKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		spec JobSpec
		key  string
	}{
		{JobSpec{Alg: AlgSimple, D: 3, N: 8}, "2886cfefad047d562ea4b4fd89ffd816c053f9373a38923008b288c7c8c1bb4e"},
		{JobSpec{Alg: AlgRoute, D: 3, N: 16, Faults: 0.01}, "2c90840539938a66b5dfc3d9749c23b6fa4ed2c3995bd68f5852a3519574b490"},
		{JobSpec{Alg: AlgTraffic, D: 3, N: 8, Load: "k:2", Inject: "trickle:2"}, "b15e9bedb171117b8413427168428d303531f953a9e1a3fd66d11c78e1b38a27"},
		{JobSpec{Alg: AlgCliqueRoute, N: 64, K: 3}, "eb708569e84f2ebea1d9cbba782489b327ae633808e7948a6bf5b98bb3a49fd9"},
	} {
		if got := mustCanon(t, tc.spec).Key(); got != tc.key {
			t.Errorf("Key(%+v) = %s, want %s", tc.spec, got, tc.key)
		}
	}
}

func TestKeyAndShapeKey(t *testing.T) {
	a := mustCanon(t, JobSpec{Alg: AlgSimple, D: 3, N: 8})
	b := mustCanon(t, JobSpec{Alg: AlgSimple, D: 3, N: 8, Seed: 2})
	if a.Key() == b.Key() {
		t.Error("different seeds share a cache key")
	}
	if a.ShapeKey() != b.ShapeKey() || a.ShapeKey() != "mesh/3/8" {
		t.Errorf("shape keys: %q vs %q, want mesh/3/8", a.ShapeKey(), b.ShapeKey())
	}
	tor := mustCanon(t, JobSpec{Alg: AlgTorusSort, D: 3, N: 8})
	if tor.ShapeKey() != "torus/3/8" {
		t.Errorf("torus shape key = %q", tor.ShapeKey())
	}
	if !tor.Shape().Torus || a.Shape().Torus {
		t.Error("Shape torus flags wrong")
	}
}
