package machine

import (
	"strings"
	"testing"
)

func TestUniformCluster(t *testing.T) {
	c, err := UniformCluster(3, TinyTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 3 {
		t.Fatalf("len(Nodes) = %d, want 3", len(c.Nodes))
	}
	// The base one past the last node is the cluster's CPU count.
	if got := c.CPUBase(len(c.Nodes)); got != 12 {
		t.Fatalf("total CPUs = %d, want 12 (3 x 4-core tiny-test)", got)
	}
	for i, n := range c.Nodes {
		if n.ID != i {
			t.Fatalf("node %d has ID %d", i, n.ID)
		}
		if want := "node" + string(rune('0'+i)); n.Name != want {
			t.Fatalf("node %d named %q, want %q", i, n.Name, want)
		}
		if n.EffectiveNoise() != 1 {
			t.Fatalf("node %d effective noise %g, want 1 (natural)", i, n.EffectiveNoise())
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUniformClusterErrors(t *testing.T) {
	if _, err := UniformCluster(0, TinyTest); err == nil {
		t.Fatal("expected error for 0 nodes")
	}
	if _, err := UniformCluster(2, "not-a-preset"); err == nil {
		t.Fatal("expected error for unknown preset")
	}
}

func TestCPUBaseDisjointBlocks(t *testing.T) {
	// Heterogeneous presets: blocks must stack by node order.
	a, b := MustPreset(TinyTest), MustPreset(TinySMTTest) // 4 and 8 CPUs
	c, err := NewCluster(&Node{Topo: a}, &Node{Topo: b}, &Node{Topo: a})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 4, 12}
	for i, w := range want {
		if got := c.CPUBase(i); got != w {
			t.Fatalf("CPUBase(%d) = %d, want %d", i, got, w)
		}
	}
	if got := c.CPUBase(len(c.Nodes)); got != 16 {
		t.Fatalf("total CPUs = %d, want 16", got)
	}
}

func TestSetStraggler(t *testing.T) {
	c, err := UniformCluster(2, TinyTest)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetStraggler(1, 8); err != nil {
		t.Fatal(err)
	}
	if got := c.Nodes[1].EffectiveNoise(); got != 8 {
		t.Fatalf("straggler effective noise %g, want 8", got)
	}
	if got := c.Nodes[0].EffectiveNoise(); got != 1 {
		t.Fatalf("non-straggler effective noise %g, want 1", got)
	}
	if err := c.SetStraggler(2, 8); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
	if err := c.SetStraggler(-1, 8); err == nil {
		t.Fatal("expected error for negative index")
	}
	if err := c.SetStraggler(0, -1); err == nil {
		t.Fatal("expected error for negative scale")
	}
}

func TestNodeValidate(t *testing.T) {
	n := &Node{ID: 0, Name: "n0"}
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "no topology") {
		t.Fatalf("nil topology: got %v", err)
	}
	n.Topo = MustPreset(TinyTest)
	n.NoiseScale = -0.5
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "NoiseScale") {
		t.Fatalf("negative noise scale: got %v", err)
	}
	n.NoiseScale = 4
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterValidateShape(t *testing.T) {
	if _, err := NewCluster(); err == nil {
		t.Fatal("expected error for empty cluster")
	}
	if _, err := NewCluster(&Node{Topo: MustPreset(TinyTest)}, nil); err == nil {
		t.Fatal("expected error for nil node")
	}
	// IDs must match positions: NewCluster assigns them, but a hand-built
	// cluster with a mismatch must fail validation.
	c := &Cluster{Nodes: []*Node{{ID: 1, Name: "x", Topo: MustPreset(TinyTest)}}}
	if err := c.Validate(); err == nil {
		t.Fatal("expected error for ID/position mismatch")
	}
}
