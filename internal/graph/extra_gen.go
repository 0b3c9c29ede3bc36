package graph

import (
	"fmt"
	"math/rand"
)

// NewHypercube builds the d-dimensional hypercube Q_d (2^d nodes, degree
// d): a vertex-transitive benchmark where WL refinement cannot separate
// any nodes — the extreme case of local indistinguishability.
func NewHypercube(dim int, seed int64) (*Graph, error) {
	if dim < 1 || dim > 20 {
		return nil, fmt.Errorf("hypercube: need 1 <= dim <= 20, got %d", dim)
	}
	n := 1 << dim
	rng := rand.New(rand.NewSource(seed))
	ids := shuffledIDs(n, rng)
	b := NewBuilder(n, n*dim/2)
	nodes := make([]NodeID, n)
	for i := 0; i < n; i++ {
		nodes[i] = b.Node(ids[i])
	}
	for i := 0; i < n; i++ {
		for bit := 0; bit < dim; bit++ {
			j := i ^ (1 << bit)
			if i < j {
				b.Link(nodes[i], nodes[j])
			}
		}
	}
	return b.Build()
}
