package mutex

import (
	"fmt"

	"cfc/internal/opset"
	"cfc/internal/sim"
)

// NodeKind selects the two-process node used at atomicity 1, where a
// Lamport-fast node cannot arbitrate (an l-bit identifier register with 0
// reserved for "empty" distinguishes only 2^l - 1 competitors, which is 1
// at l = 1). This is ablation 2 of DESIGN.md.
type NodeKind uint8

const (
	// NodePeterson uses Peterson's algorithm [PF77]: 3 bits per node, one
	// of them written by both sides.
	NodePeterson NodeKind = iota + 1
	// NodeKessels uses Kessels's algorithm [Kes82]: 4 single-writer bits
	// per node.
	NodeKessels
)

// String returns the node kind name.
func (k NodeKind) String() string {
	switch k {
	case NodePeterson:
		return "peterson"
	case NodeKessels:
		return "kessels"
	default:
		return fmt.Sprintf("node(%d)", uint8(k))
	}
}

// Tournament is the Theorem 3 construction: a tree of mutual-exclusion
// nodes, each a copy of Lamport's fast algorithm on its own registers of
// width l bits, arbitrating 2^l - 1 child slots (identifier 0 is reserved
// for "empty", a detail the paper glosses over when it says a node
// handles 2^l processes). A process starts at its leaf and must win every
// node on the path to the root before entering its critical section; the
// exit code releases the nodes from leaf to root, as in the paper.
//
// Contention-free complexity: 7 accesses to 3 distinct registers per
// level, with depth ceil(log n / log(2^l - 1)) ~ ceil(log n / l) levels,
// matching Theorem 3's 7*ceil(log n/l) steps and 3*ceil(log n/l)
// registers for l >= 2.
//
// At l = 1 the tree falls back to two-process nodes chosen by Node
// (Peterson by default: 4 accesses to 3 registers per level, depth
// ceil(log n)). The idea of a binary arbitration tree is due to Peterson &
// Fischer [PF77]; with Kessels nodes the tree is Kessels's O(log n)
// worst-case-register-complexity algorithm [Kes82].
type Tournament struct {
	// L is the atomicity (register width in bits), >= 1.
	L int
	// Node selects the two-process node used when L == 1; zero value
	// means NodePeterson.
	Node NodeKind
}

// Name implements Algorithm.
func (t Tournament) Name() string {
	if t.L == 1 {
		return fmt.Sprintf("tournament(l=1,%v)", t.nodeKind())
	}
	return fmt.Sprintf("tournament(l=%d)", t.L)
}

func (t Tournament) nodeKind() NodeKind {
	if t.Node == 0 {
		return NodePeterson
	}
	return t.Node
}

// Atomicity implements Algorithm.
func (t Tournament) Atomicity(int) int { return t.L }

// Model implements Algorithm.
func (Tournament) Model() opset.Model { return opset.AtomicRegisters }

// Arity returns the number of child slots of each tree node.
func (t Tournament) Arity() int {
	if t.L <= 1 {
		return 2
	}
	if t.L >= 31 {
		return 1<<31 - 1
	}
	return 1<<t.L - 1
}

// Depth returns the number of tree levels used for n processes: the
// smallest d with Arity()^d >= n.
func (t Tournament) Depth(n int) int {
	if n <= 1 {
		return 0
	}
	k := t.Arity()
	d := 0
	for span := 1; span < n; span *= k {
		d++
	}
	return d
}

// New implements Algorithm.
func (t Tournament) New(mem *sim.Memory, n int) (Instance, error) {
	if t.L < 1 {
		return nil, fmt.Errorf("mutex: tournament atomicity %d < 1", t.L)
	}
	if n < 1 {
		return nil, fmt.Errorf("mutex: tournament needs n >= 1, got %d", n)
	}
	inst := &tournamentInstance{arity: t.Arity(), depth: t.Depth(n)}
	inst.paths = make([][][2]int, n)
	for pid := range inst.paths {
		inst.paths[pid] = inst.path(pid)
	}
	if inst.depth == 0 {
		return inst, nil // single process: no arbitration needed
	}

	// levels[j] holds the nodes at distance j from the leaves; level 0 is
	// the leaf level. Level j has ceil(n / arity^(j+1)) nodes.
	count := n
	for j := 0; j < inst.depth; j++ {
		count = ceilDiv(count, inst.arity)
		nodes := make([]treeNode, count)
		for i := range nodes {
			prefix := fmt.Sprintf("L%d.%d.", j, i)
			if t.L == 1 {
				switch t.nodeKind() {
				case NodeKessels:
					nodes[i] = &twoNodeAdapter{node: newKesselsNode(mem, prefix)}
				default:
					nodes[i] = &twoNodeAdapter{node: newPetersonNode(mem, prefix)}
				}
			} else {
				nodes[i] = &lamportNodeAdapter{node: newLamportNode(mem, prefix, inst.arity)}
			}
		}
		inst.levels = append(inst.levels, nodes)
	}
	return inst, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// treeNode is a k-slot arbiter; slots are 0-based here (adapters translate
// to each node protocol's convention).
type treeNode interface {
	lockSlot(p *sim.Proc, slot int)
	unlockSlot(p *sim.Proc, slot int)
}

type lamportNodeAdapter struct{ node *lamportNode }

func (a *lamportNodeAdapter) lockSlot(p *sim.Proc, slot int)   { a.node.lock(p, slot+1) }
func (a *lamportNodeAdapter) unlockSlot(p *sim.Proc, slot int) { a.node.unlock(p, slot+1) }

type twoNodeAdapter struct{ node twoProcNode }

func (a *twoNodeAdapter) lockSlot(p *sim.Proc, slot int)   { a.node.lock(p, slot) }
func (a *twoNodeAdapter) unlockSlot(p *sim.Proc, slot int) { a.node.unlock(p, slot) }

type tournamentInstance struct {
	arity  int
	depth  int
	levels [][]treeNode // levels[0] = leaves
	paths  [][][2]int   // paths[pid] = path(pid), built once by New
}

// path returns, for process pid, the (node, slot) pair at every level
// from leaf to root.
func (ti *tournamentInstance) path(pid int) [][2]int {
	out := make([][2]int, 0, ti.depth)
	idx := pid
	for j := 0; j < ti.depth; j++ {
		out = append(out, [2]int{idx / ti.arity, idx % ti.arity})
		idx /= ti.arity
	}
	return out
}

// Lock implements Instance: win every node from the leaf to the root.
func (ti *tournamentInstance) Lock(p *sim.Proc) {
	for j, pos := range ti.paths[p.ID()] {
		ti.levels[j][pos[0]].lockSlot(p, pos[1])
	}
}

// Unlock implements Instance: release every node from the root down to
// the leaf.
//
// The paper says the exit code runs "in all the nodes in its path from the
// leaf to the root", but taken literally that order is unsafe: after the
// leaf is released, a successor from the same subtree can win it, climb to
// a node the exiting process still holds, and — because successive winners
// of one subtree use the same slot registers at the parent — have its
// freshly written slot state cleared by the exiting process's delayed exit
// writes (observable as a mutual-exclusion violation in the simulator).
// Releasing top-down closes the race: a successor cannot reach level j
// before level j-1 is released, so every node's exit code runs while no
// successor is active at that node. The step and register counts are
// unchanged (the exit code still visits each node on the path once).
func (ti *tournamentInstance) Unlock(p *sim.Proc) {
	path := ti.paths[p.ID()]
	for j := len(path) - 1; j >= 0; j-- {
		ti.levels[j][path[j][0]].unlockSlot(p, path[j][1])
	}
}

// RestartSafe declares crash/recovery faults admissible (see
// driver.RestartCapable).
func (ti *tournamentInstance) RestartSafe() bool { return true }

var _ Algorithm = Tournament{}
