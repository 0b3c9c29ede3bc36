// Package gadget implements the (log, Δ)-gadget family of Section 4: each
// gadget consists of Δ sub-gadgets — complete binary trees with horizontal
// level paths (Figure 5) — whose roots attach to a central node (Figure 6).
// Constant-size input labels make the structure locally checkable
// (Sections 4.2 and 4.3); package errorproof builds the error-proof LCL Ψ
// on top of these labels.
package gadget

import (
	"fmt"
	"strconv"
	"strings"

	"locallab/internal/graph"
	"locallab/internal/lcl"
)

// Half-edge input labels of the gadget structure (Figures 5 and 6). Downᵢ
// is parameterized; use HalfDown and ParseDown.
const (
	LabParent lcl.Label = "Parent"
	LabLeft   lcl.Label = "Left"
	LabRight  lcl.Label = "Right"
	LabLChild lcl.Label = "LChild"
	LabRChild lcl.Label = "RChild"
	LabUp     lcl.Label = "Up"
)

// HalfDown renders the Downᵢ label of the center's edge toward the root
// of sub-gadget i (1-based).
func HalfDown(i int) lcl.Label { return lcl.Label("Down:" + strconv.Itoa(i)) }

// ParseDown recognizes Downᵢ labels and extracts i.
func ParseDown(l lcl.Label) (int, bool) {
	s := string(l)
	if !strings.HasPrefix(s, "Down:") {
		return 0, false
	}
	i, err := strconv.Atoi(s[len("Down:"):])
	if err != nil || i < 1 {
		return 0, false
	}
	return i, true
}

// IsSubgadgetHalfLabel reports whether the label belongs to the
// sub-gadget alphabet of Section 4.1 (tree-internal labels, excluding
// Up/Downᵢ which belong to the gadget level).
func IsSubgadgetHalfLabel(l lcl.Label) bool {
	switch l {
	case LabParent, LabLeft, LabRight, LabLChild, LabRChild:
		return true
	}
	return false
}

// NodeInput is the decoded node input label of a gadget node: either the
// center, or a sub-gadget node with its Indexᵢ (and Portᵢ for the
// bottom-right node). Color carries the distance-2 coloring that Section
// 4.6 adds to certify the absence of self-loops and parallel edges.
type NodeInput struct {
	Center bool
	Index  int // 1..Δ for sub-gadget nodes, 0 for the center
	Port   int // 1..Δ if this is the Portᵢ node, else 0
	Color  int // distance-2 color within the gadget
}

// Label encodes the node input as an lcl.Label.
func (ni NodeInput) Label() lcl.Label {
	var parts []string
	if ni.Center {
		parts = append(parts, "Center")
	}
	if ni.Index > 0 {
		parts = append(parts, "Index:"+strconv.Itoa(ni.Index))
	}
	if ni.Port > 0 {
		parts = append(parts, "Port:"+strconv.Itoa(ni.Port))
	}
	parts = append(parts, "Col:"+strconv.Itoa(ni.Color))
	return lcl.Label(strings.Join(parts, "|"))
}

// ParseNodeInput decodes a node input label.
func ParseNodeInput(l lcl.Label) (NodeInput, error) {
	var ni NodeInput
	if l == "" {
		return ni, fmt.Errorf("empty gadget node label")
	}
	for _, part := range strings.Split(string(l), "|") {
		switch {
		case part == "Center":
			ni.Center = true
		case strings.HasPrefix(part, "Index:"):
			v, err := strconv.Atoi(part[len("Index:"):])
			if err != nil || v < 1 {
				return ni, fmt.Errorf("bad Index in %q", l)
			}
			ni.Index = v
		case strings.HasPrefix(part, "Port:"):
			v, err := strconv.Atoi(part[len("Port:"):])
			if err != nil || v < 1 {
				return ni, fmt.Errorf("bad Port in %q", l)
			}
			ni.Port = v
		case strings.HasPrefix(part, "Col:"):
			v, err := strconv.Atoi(part[len("Col:"):])
			if err != nil || v < 0 {
				return ni, fmt.Errorf("bad Col in %q", l)
			}
			ni.Color = v
		default:
			return ni, fmt.Errorf("unknown part %q in gadget node label", part)
		}
	}
	return ni, nil
}

// NodeInputs is the parsed node-input layer of one labeling. Each
// distinct label is parsed once, so a constant-size alphabet costs a
// constant number of parses however large the graph. The labeling must
// not change while its NodeInputs is in use.
type NodeInputs struct {
	src *lcl.Labeling
	idx []int32 // per node: its label's slot in ni and err
	ni  []NodeInput
	err []error
}

// ParseNodeInputs parses every node input label of in.
func ParseNodeInputs(in *lcl.Labeling) *NodeInputs {
	p := &NodeInputs{src: in, idx: make([]int32, len(in.Node))}
	slot := make(map[lcl.Label]int32)
	for v, l := range in.Node {
		k, ok := slot[l]
		if !ok {
			k = int32(len(p.ni))
			slot[l] = k
			ni, err := ParseNodeInput(l)
			p.ni, p.err = append(p.ni, ni), append(p.err, err)
		}
		p.idx[v] = k
	}
	return p
}

// Of returns node v's parsed input label in `in`: from p when p was parsed
// from in, otherwise (p nil, or parsed from another labeling) by parsing
// the label afresh.
func (p *NodeInputs) Of(in *lcl.Labeling, v graph.NodeID) (NodeInput, error) {
	if p != nil && p.src == in {
		k := p.idx[v]
		return p.ni[k], p.err[k]
	}
	return ParseNodeInput(in.Node[v])
}
