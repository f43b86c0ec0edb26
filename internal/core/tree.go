package core

import (
	"fmt"
	"runtime"
	"strings"

	"cdt/internal/pattern"
)

// Options configures CDT induction. The zero value is usable and matches
// the paper's setup (contiguous matching, Gini, no depth or length caps).
type Options struct {
	// Criterion is the impurity used to score splits (default Gini).
	Criterion SplitCriterion
	// Match selects the ⊆o semantics (default contiguous).
	Match MatchMode
	// MaxCompositionLen caps candidate composition length; 0 means
	// unlimited (up to ω). Short caps trade accuracy for speed and rule
	// brevity (ablated in the benchmarks).
	MaxCompositionLen int
	// MaxDepth caps tree depth; 0 means unlimited. Algorithm 1 has no
	// cap: it stops only on purity or zero gain.
	MaxDepth int
	// MinGain is the minimum information gain required to split; the
	// paper requires strictly positive gain (maxGain ≠ 0), which the
	// zero value reproduces.
	MinGain float64
	// Parallelism bounds the goroutines counting candidate supports in
	// subsequence mode (countSubsequenceSupports); 0 means GOMAXPROCS.
	// Contiguous counting is one sequential pass and ignores it.
	Parallelism int
}

func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Node is one CDT node: the quadruplet of Algorithm 1 (observations are
// summarized by their class counts rather than retained) plus bookkeeping
// for rule extraction and rendering.
type Node struct {
	// Composition splits this node; nil for leaves.
	Composition *Composition
	// ChildTrue holds observations matched by Composition (c ∈o d),
	// ChildFalse the rest. Both nil for leaves.
	ChildTrue, ChildFalse *Node
	// Counts is the class distribution of the node's observations.
	Counts ClassCounts
	// Depth is the node's distance from the root.
	Depth int
}

// Leaf reports whether the node has no split.
func (n *Node) Leaf() bool { return n.Composition == nil }

// Class returns the node's majority class (ties break to Anomaly).
func (n *Node) Class() Class { return n.Counts.Majority() }

// Pure reports whether all of the node's observations share one class.
func (n *Node) Pure() bool { return n.Counts.Pure() }

// Tree is a trained Composition-based Decision Tree.
type Tree struct {
	// Root is the tree root; never nil after Build succeeds.
	Root *Node
	// Omega is the window size the tree was trained with.
	Omega int
	// Opts are the induction options used.
	Opts Options
}

// Build induces a CDT from training observations (Algorithm 1). All
// observations must share the same window length, which becomes the
// tree's ω.
//
// Algorithm 1 scores every candidate against all of a node's
// observations. Build counts each candidate's supports over the root's
// pool once; at each split it counts only the smaller child and derives
// the larger child's supports by subtracting the smaller's from the
// parent's, in place. A split's candidates, supports, gains and
// tie-breaks are those of the direct reading, so the tree is too.
func Build(obs []Observation, opts Options) (*Tree, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("core: no observations")
	}
	omega := len(obs[0].Labels)
	for i := range obs {
		if len(obs[i].Labels) != omega {
			return nil, fmt.Errorf("core: observation %d has %d labels, want %d", i, len(obs[i].Labels), omega)
		}
	}
	t := &Tree{Omega: omega, Opts: opts}
	t.Root = &Node{Counts: Count(obs)}
	// A node splits only if it is impure and above the depth cap; the
	// others are leaves and need no supports.
	splits := func(n *Node) bool {
		return !n.Pure() && (opts.MaxDepth <= 0 || n.Depth < opts.MaxDepth)
	}
	if !splits(t.Root) {
		return t, nil
	}
	// The induction never moves or copies an observation (the input is
	// often a shared Corpus cache entry). The trie lays the pool out in
	// series space once, and each pending node keeps its windows as a
	// sorted list of spans in one arena. The node being split lies at the
	// arena's top, and its split writes the children's spans over its
	// own; below it lie only the spans of nodes disjoint from it (pending
	// ones and the leaf siblings under them). A node has no more spans
	// than windows, so neither the arena nor a split's in and out lists
	// outgrow the pool's window count.
	trie := newCandidateTrie(obs, opts)
	buf := make([]span, 3*len(obs))
	arena := buf[:len(obs)]
	ins, outs := buf[len(obs):len(obs):2*len(obs)], buf[2*len(obs):2*len(obs)]
	copy(arena, trie.runs)
	// Nodes wait on a stack with their spans and supports. The order
	// nodes are split in does not change the tree, and a stack keeps at
	// most one pending sibling, so one support array, per level.
	type item struct {
		node   *Node
		lo, hi int // the node's spans are arena[lo:hi]
		sup    supports
	}
	root := arena[:len(trie.runs)]
	stack := []item{{t.Root, 0, len(root), trie.count(root, nil)}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node := it.node
		best, gain, inCounts := trie.best(it.sup, node.Counts)
		if best == 0 || gain <= opts.MinGain {
			trie.release(it.sup)
			continue
		}
		// The split scoring already counted the in-side, so the child
		// class counts are known without re-scanning.
		outCounts := ClassCounts{
			Normal:  node.Counts.Normal - inCounts.Normal,
			Anomaly: node.Counts.Anomaly - inCounts.Anomaly,
		}
		ins, outs = trie.split(arena[it.lo:it.hi], best, ins[:0], outs[:0])
		copy(arena[it.lo:], ins)
		copy(arena[it.lo+len(ins):], outs)
		comp := trie.composition(best)
		node.Composition = &comp
		node.ChildTrue = &Node{Counts: inCounts, Depth: node.Depth + 1}
		node.ChildFalse = &Node{Counts: outCounts, Depth: node.Depth + 1}
		in := item{node: node.ChildTrue, lo: it.lo, hi: it.lo + len(ins)}
		out := item{node: node.ChildFalse, lo: in.hi, hi: in.hi + len(outs)}
		small, large := &in, &out
		if inCounts.Total() > outCounts.Total() {
			small, large = large, small
		}
		// Count the smaller child; the larger one inherits the parent's
		// supports minus the smaller's. A child that does not split
		// gets no supports, so a leaf smaller child is subtracted from
		// the parent's arrays as it is counted.
		smallSpans := arena[small.lo:small.hi]
		if splits(small.node) {
			small.sup = trie.count(smallSpans, &it.sup)
		}
		switch {
		case !splits(large.node):
			trie.release(it.sup)
		case splits(small.node):
			trie.subtract(it.sup, small.sup)
			large.sup = it.sup
		default:
			trie.tally(smallSpans, &it.sup, it.sup, -1)
			large.sup = it.sup
		}
		for _, c := range []item{in, out} {
			if splits(c.node) {
				stack = append(stack, c)
			}
		}
	}
	return t, nil
}

// Predict classifies one window of labels by routing it through the tree.
func (t *Tree) Predict(labels []pattern.Label) Class {
	n := t.Root
	for !n.Leaf() {
		if n.Composition.MatchedBy(labels, t.Opts.Match) {
			n = n.ChildTrue
		} else {
			n = n.ChildFalse
		}
	}
	return n.Class()
}

// PredictAll classifies a batch of observations, returning one class per
// observation.
func (t *Tree) PredictAll(obs []Observation) []Class {
	out := make([]Class, len(obs))
	for i := range obs {
		out[i] = t.Predict(obs[i].Labels)
	}
	return out
}

// Stats summarizes tree shape for reporting (Figure 2 discusses splits
// and leaves).
type Stats struct {
	Nodes, Leaves, Splits, MaxDepth int
	AnomalyLeaves                   int
	PureAnomalyLeaves               int
}

// Stats walks the tree and tallies its shape.
func (t *Tree) Stats() Stats {
	var st Stats
	var walk func(n *Node)
	walk = func(n *Node) {
		st.Nodes++
		if n.Depth > st.MaxDepth {
			st.MaxDepth = n.Depth
		}
		if n.Leaf() {
			st.Leaves++
			if n.Class() == Anomaly {
				st.AnomalyLeaves++
				if n.Pure() {
					st.PureAnomalyLeaves++
				}
			}
			return
		}
		st.Splits++
		walk(n.ChildTrue)
		walk(n.ChildFalse)
	}
	walk(t.Root)
	return st
}

// Render draws the tree as indented text (used for the Figure 2
// illustration), naming compositions with the configuration's interval
// names.
func (t *Tree) Render(cfg pattern.Config) string {
	var b strings.Builder
	var walk func(n *Node, prefix string, branch string)
	walk = func(n *Node, prefix, branch string) {
		b.WriteString(prefix)
		b.WriteString(branch)
		if n.Leaf() {
			fmt.Fprintf(&b, "leaf %s (normal=%d anomaly=%d)\n", n.Class(), n.Counts.Normal, n.Counts.Anomaly)
			return
		}
		fmt.Fprintf(&b, "split on %s (normal=%d anomaly=%d)\n", n.Composition.Format(cfg), n.Counts.Normal, n.Counts.Anomaly)
		walk(n.ChildTrue, prefix+"  ", "∈o → ")
		walk(n.ChildFalse, prefix+"  ", "∉o → ")
	}
	walk(t.Root, "", "")
	return b.String()
}

// DOT renders the tree as Graphviz source (an alternative to Render for
// publication-quality Figure 2 diagrams). Split nodes show their
// composition, leaves their class and counts; true branches are labeled
// "∈o", false branches "∉o".
func (t *Tree) DOT(cfg pattern.Config) string {
	var b strings.Builder
	b.WriteString("digraph cdt {\n  node [fontname=\"Helvetica\"];\n")
	id := 0
	var walk func(n *Node) int
	walk = func(n *Node) int {
		me := id
		id++
		if n.Leaf() {
			shape := "ellipse"
			fill := "white"
			if n.Class() == Anomaly {
				fill = "lightcoral"
			} else {
				fill = "lightgreen"
			}
			fmt.Fprintf(&b, "  n%d [shape=%s, style=filled, fillcolor=%s, label=\"%s\\nnormal=%d anomaly=%d\"];\n",
				me, shape, fill, n.Class(), n.Counts.Normal, n.Counts.Anomaly)
			return me
		}
		fmt.Fprintf(&b, "  n%d [shape=box, label=%q];\n", me, n.Composition.Format(cfg))
		tc := walk(n.ChildTrue)
		fc := walk(n.ChildFalse)
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"∈o\"];\n", me, tc)
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"∉o\"];\n", me, fc)
		return me
	}
	walk(t.Root)
	b.WriteString("}\n")
	return b.String()
}
