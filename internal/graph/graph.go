// Package graph implements a static dataflow computation graph with shape
// inference, reverse-mode automatic differentiation, and a TensorFlow-style
// executor with separate intra-op and inter-op parallelism. It is the
// framework runtime of dnnperf: the role TensorFlow's executor plays under
// tf_cnn_benchmarks in the reproduced paper.
//
// A Graph is built once (shapes are inferred at construction time) and then
// executed many times. Independent nodes — e.g. the parallel branches of an
// Inception module — can run concurrently on the inter-op pool, while each
// kernel parallelizes internally over the intra-op pool, exactly the two
// knobs (-num_inter_threads / -num_intra_threads) the paper tunes.
package graph

import (
	"fmt"

	"dnnperf/internal/tensor"
)

// NodeKind distinguishes the three node flavors.
type NodeKind int

const (
	// KindInput is a placeholder fed at execution time (images, labels).
	KindInput NodeKind = iota
	// KindVariable is a trainable parameter with persistent value and grad.
	KindVariable
	// KindOp is a computed node.
	KindOp
)

// Node is a vertex of the computation graph.
type Node struct {
	ID     int
	Name   string
	Kind   NodeKind
	Op     Op      // nil unless Kind == KindOp
	Inputs []*Node // nil for inputs/variables
	shape  []int

	// Variable state (Kind == KindVariable). Value and Grad are allocated
	// lazily by Materialize so that simulation-only users can build huge
	// graphs (ResNet-152 at batch 1024) without touching memory.
	Value *tensor.Tensor
	Grad  *tensor.Tensor
	init  Initializer

	consumers int // number of nodes that consume this node's output
}

// Initializer produces the initial value for a variable of a given shape.
type Initializer func(shape []int) *tensor.Tensor

// Materialize allocates the variable's value (via its initializer) and
// gradient buffers if they do not exist yet. It is a no-op for non-variables
// and for already-materialized variables.
func (n *Node) Materialize() {
	if n.Kind != KindVariable || n.Value != nil {
		return
	}
	n.Value = n.init(n.shape)
	if !tensor.ShapeEq(n.Value.Shape(), n.shape) {
		panic(fmt.Sprintf("graph: initializer for %q produced shape %v, want %v", n.Name, n.Value.Shape(), n.shape))
	}
	n.Grad = tensor.New(n.shape...)
}

// Shape returns the node's inferred output shape.
func (n *Node) Shape() []int { return n.shape }

// Consumers returns how many downstream nodes read this node's output.
func (n *Node) Consumers() int { return n.consumers }

// Graph is a static dataflow graph. Nodes are stored in topological order
// (builder methods only reference already-built nodes, so insertion order is
// a valid topological order).
type Graph struct {
	Nodes []*Node
	vars  []*Node
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Input adds a placeholder node with the given shape.
func (g *Graph) Input(name string, shape ...int) *Node {
	n := &Node{ID: len(g.Nodes), Name: name, Kind: KindInput, shape: append([]int(nil), shape...)}
	g.Nodes = append(g.Nodes, n)
	return n
}

// Variable adds a trainable parameter of the given shape whose initial
// value is produced lazily by init on first materialization.
func (g *Graph) Variable(name string, shape []int, init Initializer) *Node {
	n := &Node{
		ID:    len(g.Nodes),
		Name:  name,
		Kind:  KindVariable,
		shape: append([]int(nil), shape...),
		init:  init,
	}
	g.Nodes = append(g.Nodes, n)
	g.vars = append(g.vars, n)
	return n
}

// Zeros is an Initializer producing an all-zero tensor.
func Zeros(shape []int) *tensor.Tensor { return tensor.New(shape...) }

// OnesInit is an Initializer producing an all-ones tensor (batch-norm gamma).
func OnesInit(shape []int) *tensor.Tensor { return tensor.Ones(shape...) }

// ConstInit returns an Initializer that wraps a fixed tensor.
func ConstInit(t *tensor.Tensor) Initializer {
	return func([]int) *tensor.Tensor { return t }
}

// Apply adds an op node consuming the given inputs. The output shape is
// inferred from the op and input shapes; Apply panics on shape errors so
// model-construction bugs surface at build time, as in TensorFlow.
func (g *Graph) Apply(op Op, name string, inputs ...*Node) *Node {
	shapes := make([][]int, len(inputs))
	for i, in := range inputs {
		shapes[i] = in.shape
	}
	out := op.InferShape(shapes)
	n := &Node{
		ID:     len(g.Nodes),
		Name:   name,
		Kind:   KindOp,
		Op:     op,
		Inputs: append([]*Node(nil), inputs...),
		shape:  out,
	}
	for _, in := range inputs {
		in.consumers++
	}
	g.Nodes = append(g.Nodes, n)
	return n
}

// Variables returns the graph's trainable parameters in creation order.
func (g *Graph) Variables() []*Node { return g.vars }

// ParamCount returns the total number of trainable scalar parameters.
func (g *Graph) ParamCount() int64 {
	var n int64
	for _, v := range g.vars {
		n += int64(tensor.NumElems(v.shape))
	}
	return n
}

// GradBytes returns the total gradient payload exchanged per training step
// (4 bytes per parameter), the quantity Horovod allreduces.
func (g *Graph) GradBytes() int64 { return 4 * g.ParamCount() }

// ZeroGrads clears all variable gradients.
func (g *Graph) ZeroGrads() {
	for _, v := range g.vars {
		if v.Grad != nil {
			v.Grad.Zero()
		}
	}
}

// Validate checks internal invariants (topological ordering, input arity).
// It returns an error rather than panicking so tests can probe corruption.
func (g *Graph) Validate() error {
	for i, n := range g.Nodes {
		if n.ID != i {
			return fmt.Errorf("graph: node %q has ID %d at position %d", n.Name, n.ID, i)
		}
		for _, in := range n.Inputs {
			if in.ID >= n.ID {
				return fmt.Errorf("graph: node %q consumes later node %q", n.Name, in.Name)
			}
		}
		if n.Kind == KindOp && n.Op == nil {
			return fmt.Errorf("graph: op node %q has nil op", n.Name)
		}
	}
	return nil
}
