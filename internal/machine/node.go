package machine

import "fmt"

// Node is one machine of a simulated cluster: a topology plus per-node
// attributes the cluster layer consumes. Logical CPU numbering is local to
// the node (each node's scheduler sees CPUs [0, Topo.NumCPUs())); the
// cluster assigns each node a disjoint global CPU block for observability
// (see Cluster.CPUBase).
type Node struct {
	// ID is the node's index within its cluster.
	ID int
	// Name labels the node in output ("node0", "node1", ...).
	Name string
	// Topo is the node's machine model. Nodes of one cluster may use
	// heterogeneous presets.
	Topo *Topology
	// NoiseScale multiplies the node's background-noise intensity. 0 and 1
	// both mean the natural level; a straggler node models a misbehaving
	// machine with a value > 1 (e.g. 4).
	NoiseScale float64
}

// EffectiveNoise returns the node's noise multiplier with the "0 means
// natural" convention resolved: it is never below zero and 0 maps to 1.
func (n *Node) EffectiveNoise() float64 {
	if n.NoiseScale == 0 {
		return 1
	}
	return n.NoiseScale
}

// Validate checks the node for internal consistency.
func (n *Node) Validate() error {
	if n.Topo == nil {
		return fmt.Errorf("machine: node %d (%s) has no topology", n.ID, n.Name)
	}
	if err := n.Topo.Validate(); err != nil {
		return fmt.Errorf("machine: node %d (%s): %w", n.ID, n.Name, err)
	}
	if n.NoiseScale < 0 {
		return fmt.Errorf("machine: node %d (%s): NoiseScale = %v, must be >= 0",
			n.ID, n.Name, n.NoiseScale)
	}
	return nil
}

// Cluster is the multi-node counterpart of Topology: an ordered list of
// nodes sharing one simulated datacenter. It carries no clock or scheduler
// state of its own — the cluster layer instantiates one cpusched.Scheduler
// per node against a single shared sim.Engine, so cross-node events stay
// globally ordered and deterministic.
type Cluster struct {
	Nodes []*Node
}

// NewCluster builds a cluster from explicit nodes, assigning IDs and
// default names by position.
func NewCluster(nodes ...*Node) (*Cluster, error) {
	c := &Cluster{Nodes: nodes}
	for i, n := range c.Nodes {
		if n == nil {
			return nil, fmt.Errorf("machine: cluster node %d is nil", i)
		}
		n.ID = i
		if n.Name == "" {
			n.Name = fmt.Sprintf("node%d", i)
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// UniformCluster builds an n-node cluster where every node runs the named
// preset at natural noise.
func UniformCluster(n int, preset string) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("machine: cluster needs at least 1 node, got %d", n)
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		t, err := Preset(preset)
		if err != nil {
			return nil, err
		}
		nodes[i] = &Node{Topo: t}
	}
	return NewCluster(nodes...)
}

// Validate checks every node and the cluster shape.
func (c *Cluster) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("machine: cluster has no nodes")
	}
	for i, n := range c.Nodes {
		if n == nil {
			return fmt.Errorf("machine: cluster node %d is nil", i)
		}
		if n.ID != i {
			return fmt.Errorf("machine: cluster node %d has ID %d", i, n.ID)
		}
		if err := n.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CPUBase returns the offset of node i's CPU block in the cluster-global
// CPU numbering (node-local CPU c is global CPU CPUBase(i)+c). The blocks
// are disjoint and ordered by node ID; observability lanes use them to
// keep per-node events separable on one shared recorder.
func (c *Cluster) CPUBase(i int) int {
	base := 0
	for j := 0; j < i; j++ {
		base += c.Nodes[j].Topo.NumCPUs()
	}
	return base
}

// SetStraggler marks node idx as the straggler, running its background
// noise at scale times the natural intensity.
func (c *Cluster) SetStraggler(idx int, scale float64) error {
	if idx < 0 || idx >= len(c.Nodes) {
		return fmt.Errorf("machine: straggler index %d out of range [0,%d)", idx, len(c.Nodes))
	}
	if scale < 0 {
		return fmt.Errorf("machine: straggler scale %v must be >= 0", scale)
	}
	c.Nodes[idx].NoiseScale = scale
	return nil
}
