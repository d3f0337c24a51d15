package mechanism

import (
	"math/bits"

	"gridvo/internal/reputation"
)

// repMemoNodesPerGSP caps an engine's reputation memo at this many nodes
// per GSP of its scenario. Repeated TVOF requests on one engine walk one
// path of at most M nodes, so the cap holds sixteen distinct trajectories'
// worth (RVOF seeds, churn schedules, option sets) before later misses are
// computed and not stored.
const repMemoNodesPerGSP = 16

// noNode is the memo cursor of a walk that left the memo: every later
// lookup misses and nothing is inserted.
const noNode = -1

// repKey is the part of reputation.Options that changes the numbers the
// power method returns, plus the warm/cold flag of the trajectory below
// the root (Options.NoWarmStart changes every round after the first).
type repKey struct {
	epsilon, damping float64
	maxIter          int
	stop             reputation.StopRule
	danglingUniform  bool
	warm             bool
}

// repRoot is one trajectory trie: the global vector on the full trust
// graph is its root node, found by key.
type repRoot struct {
	key  repKey
	node int32
	diag reputation.Diagnostics
}

// repNode is one memoized reputation solve. Below the root, a node is
// keyed by its round's member bitmask and sits under the node of the round
// before it, because each round's power iteration warm-starts from the
// previous round's vector: the same coalition reached along two eviction
// paths starts from two different vectors and may end at two different
// bit patterns (or, on a periodic subgraph, two different non-converged
// iterates). Its scores are scores[off : off+popcount(mask)].
type repNode struct {
	mask        uint64
	child, next int32 // first child, next sibling; noNode when none
	off         int32
	converged   bool
}

// repMemo holds an engine's reputation trajectories: all nodes in one
// arena and all score vectors in another, linked by int32 offsets. It is
// guarded by Engine.mu. A node's scores and Converged flag never change
// once inserted; only its child list grows.
type repMemo struct {
	roots  []repRoot
	nodes  []repNode
	scores []float64
}

// repMemoUsableLocked reports whether reputation solves on this engine
// may be served from and stored in the memo. They may not with the cache
// disabled, under a fault injector (faults must stay transient and visit
// every solve), with a caller-supplied start vector or injector (the memo
// keys neither), or beyond 64 GSPs (members no longer fit a bitmask).
func (e *Engine) repMemoUsableLocked(ro *reputation.Options) bool {
	return !e.noCache && e.inject == nil && ro.Inject == nil && ro.InitialVector == nil && e.sc.M() <= 64
}

// globalReputation returns the global reputation vector of the scenario's
// full trust graph (Algorithm 2 on G) under ro, with its diagnostics, as a
// fresh slice the caller owns. It is the one path to that vector for the
// mechanism loop, StabilityCheck and MergeSplit: a memo hit counts in
// ReputationHits, a solve's multiply steps in PowerIterations. warm
// selects the trajectory trie the returned cursor roots, for RunContext's
// per-round lookups; the cursor is noNode when the memo is bypassed or
// full.
func (e *Engine) globalReputation(ro reputation.Options, warm bool) ([]float64, reputation.Diagnostics, int32, error) {
	key := repKey{
		epsilon: ro.Epsilon, damping: ro.Damping, maxIter: ro.MaxIter,
		stop: ro.Stop, danglingUniform: ro.DanglingUniform, warm: warm,
	}
	e.mu.Lock()
	memo := e.repMemoUsableLocked(&ro)
	if memo {
		for _, r := range e.rep.roots {
			if r.key == key {
				x := e.rep.copyScores(r.node)
				e.stats.ReputationHits++
				e.mu.Unlock()
				return x, r.diag, r.node, nil
			}
		}
	}
	e.mu.Unlock()

	x, diag, err := reputation.Global(e.sc.Trust, ro)
	if err != nil {
		return nil, diag, noNode, err
	}
	root := int32(noNode)
	e.mu.Lock()
	e.stats.PowerIterations += int64(diag.Iterations)
	if memo {
		root = e.rep.insertRoot(key, diag, x, e.repMemoCap())
	}
	e.mu.Unlock()
	return x, diag, root, nil
}

// repLookup returns a copy of the memoized scores of the round whose
// members form mask, reached from the previous round's node cur, with the
// solve's Converged flag and the node as the next cursor.
func (e *Engine) repLookup(cur int32, mask uint64) ([]float64, bool, int32, bool) {
	if cur == noNode {
		return nil, false, noNode, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.rep.find(cur, mask)
	if c == noNode {
		return nil, false, noNode, false
	}
	e.stats.ReputationHits++
	return e.rep.copyScores(c), e.rep.nodes[c].converged, c, true
}

// repInsert memoizes a round's freshly computed scores under cur and
// returns the cursor for the next round: the new node, the node a
// concurrent run inserted first for the same path, or noNode when cur is
// noNode or the memo is full.
func (e *Engine) repInsert(cur int32, mask uint64, scores []float64, converged bool) int32 {
	if cur == noNode {
		return noNode
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if c := e.rep.find(cur, mask); c != noNode {
		return c
	}
	if len(e.rep.nodes) >= e.repMemoCap() {
		return noNode
	}
	c := e.rep.newNode(mask, scores, converged)
	e.rep.nodes[c].next = e.rep.nodes[cur].child
	e.rep.nodes[cur].child = c
	return c
}

// repMemoCap is the memo's node cap for this engine.
func (e *Engine) repMemoCap() int { return repMemoNodesPerGSP * e.sc.M() }

// repMemoLen reports how many reputation solves (global vectors and
// per-round score vectors) the engine has memoized.
func (e *Engine) repMemoLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.rep.nodes)
}

// find returns the child of parent keyed by mask, or noNode.
func (m *repMemo) find(parent int32, mask uint64) int32 {
	for c := m.nodes[parent].child; c != noNode; c = m.nodes[c].next {
		if m.nodes[c].mask == mask {
			return c
		}
	}
	return noNode
}

// insertRoot adds a root for key unless one exists (a concurrent miss
// inserted it first) and returns its node, or noNode past the cap.
func (m *repMemo) insertRoot(key repKey, diag reputation.Diagnostics, x []float64, capNodes int) int32 {
	for _, r := range m.roots {
		if r.key == key {
			return r.node
		}
	}
	if len(m.nodes) >= capNodes {
		return noNode
	}
	c := m.newNode(^uint64(0)>>(64-uint(len(x))), x, diag.Converged)
	m.roots = append(m.roots, repRoot{key: key, node: c, diag: diag})
	return c
}

// newNode appends an unlinked node holding a copy of scores.
func (m *repMemo) newNode(mask uint64, scores []float64, converged bool) int32 {
	c := int32(len(m.nodes))
	m.nodes = append(m.nodes, repNode{mask: mask, child: noNode, next: noNode, off: int32(len(m.scores)), converged: converged})
	m.scores = append(m.scores, scores...)
	return c
}

// copyScores returns a fresh copy of node c's score vector, one entry per
// member of its mask.
func (m *repMemo) copyScores(c int32) []float64 {
	n := &m.nodes[c]
	return append([]float64(nil), m.scores[n.off:int(n.off)+bits.OnesCount64(n.mask)]...)
}
