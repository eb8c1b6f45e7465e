package cluster

import (
	"testing"

	"repro/internal/sim"
)

// threeNodeWorld builds a hand-checkable 3-node world (node 1 a 4x
// straggler) without running it.
func threeNodeWorld(t *testing.T) *World {
	t.Helper()
	sh, err := NewShell(Spec{
		Nodes: 3, Straggler: 1, StragglerScale: 4,
		Policy: PolicyRoundRobin, Tenants: 1, JobsPerTenant: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh.build(1, nil)
}

func TestRoundRobinCycles(t *testing.T) {
	w := threeNodeWorld(t)
	p, err := NewPolicy(PolicyRoundRobin, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, wantNode := range want {
		if got := p.Place(&Job{}, w); got != wantNode {
			t.Fatalf("placement %d: got node %d, want %d", i, got, wantNode)
		}
	}
}

func TestLeastLoadedPicksEmptiestNode(t *testing.T) {
	w := threeNodeWorld(t)
	p, err := NewPolicy(PolicyLeastLoad, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Nodes[0].Inflight = 4
	w.Nodes[1].Inflight = 1
	w.Nodes[2].Inflight = 2
	if got := p.Place(&Job{}, w); got != 1 {
		t.Fatalf("got node %d, want 1 (lowest inflight)", got)
	}
	// Ties break by lowest node ID.
	w.Nodes[0].Inflight = 2
	w.Nodes[1].Inflight = 2
	w.Nodes[2].Inflight = 2
	if got := p.Place(&Job{}, w); got != 0 {
		t.Fatalf("tie: got node %d, want 0", got)
	}
}

func TestNoiseAwareAvoidsStragglerAtEqualLoad(t *testing.T) {
	w := threeNodeWorld(t)
	p, err := NewPolicy(PolicyNoiseAware, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Equal load: the 4x straggler (node 1) scores 4x worse; ties among the
	// quiet nodes break to node 0.
	if got := p.Place(&Job{}, w); got != 0 {
		t.Fatalf("equal load: got node %d, want 0", got)
	}
	// Load node 0 heavily: node 2 becomes cheapest, straggler still avoided.
	w.Nodes[0].Inflight = 8
	if got := p.Place(&Job{}, w); got != 2 {
		t.Fatalf("node 0 loaded: got node %d, want 2", got)
	}
	// Saturate both quiet nodes far past the straggler's 4x handicap: the
	// policy degrades to least-loaded and finally uses the straggler.
	w.Nodes[0].Inflight = 40
	w.Nodes[2].Inflight = 40
	if got := p.Place(&Job{}, w); got != 1 {
		t.Fatalf("quiet nodes saturated: got node %d, want 1 (straggler)", got)
	}
}

func TestRandomPolicyReproducibleAndInRange(t *testing.T) {
	w := threeNodeWorld(t)
	draw := func(seed uint64) []int {
		p, err := NewPolicy(PolicyRandom, sim.NewRNG(seed).Stream("gs/policy"))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, 20)
		for i := range out {
			out[i] = p.Place(&Job{}, w)
			if out[i] < 0 || out[i] >= len(w.Nodes) {
				t.Fatalf("draw %d: node %d out of range", i, out[i])
			}
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %d vs %d", i, a[i], b[i])
		}
	}
	// A different seed should produce a different sequence (vanishingly
	// unlikely to collide over 20 draws of 3 choices).
	c := draw(7)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 7 produced identical placement sequences")
	}
}

func TestNewPolicyRejectsUnknown(t *testing.T) {
	if _, err := NewPolicy("best-effort", nil); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}
