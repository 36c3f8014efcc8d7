package core

import (
	"fmt"

	"repro/internal/perm"
	"repro/internal/symbols"
)

// Router implements the routing algorithm of Theorem 4.1 (plain super-IP
// graphs) and Theorem 4.3 (symmetric super-IP graphs): sort the leftmost
// super-symbol with nucleus generators, then follow a covering schedule of
// super-generators, sorting each super-symbol the first time it reaches the
// leftmost position. The number of hops never exceeds l*D_G + t (resp.
// l*D_G + t_S), which equals the network diameter.
//
// A Router computes the lifted generator list and the plain-case covering
// schedule once, at construction. It memoizes nucleus routing trees (at
// most one per nucleus state) and, on symmetric graphs, the covering
// schedule of each target arrangement the first time a route needs it. The
// schedule search is deterministic, so a cached schedule equals a fresh
// one, and the schedule cache holds at most one entry per arrangement of the
// arrangement group (the one core.Ranker indexes). Routes are walked in
// router-owned label scratch, so a Router is not safe for concurrent use.
type Router struct {
	s        *SuperIP
	nuc      *nucleusInfo
	m        int
	numNuc   int
	gens     []perm.Perm           // SuperIP.IPGraph().Gens
	plain    *coverPlan            // plain-case schedule, shared by all routes
	plans    map[string]*coverPlan // symmetric: target arrangement -> schedule
	revArcs  [][]revArc
	nucTrees map[int32][]int32 // target state id -> nextGen per state

	cur, next  symbols.Label // the walk's current label and the generator image
	canon      symbols.Label // block canonicalization scratch
	posOfColor []int         // symmetric target: source position of each color
	target     []byte        // symmetric target arrangement, as a plans key
}

// coverPlan is a covering schedule with the two per-super-symbol tables a
// route reads from it.
type coverPlan struct {
	sched *Schedule
	final []int // Schedule.FinalPositions
	first []int // Schedule.FirstLeftmost
}

func newCoverPlan(sched *Schedule) *coverPlan {
	return &coverPlan{sched: sched, final: sched.FinalPositions(), first: sched.FirstLeftmost()}
}

type revArc struct {
	src int32
	gen int32
}

// Path is a route through a super-IP graph: the sequence of generator
// indices (into SuperIP.IPGraph().Gens) and all intermediate labels.
type Path struct {
	Gens   []int
	Labels []symbols.Label
}

// Hops returns the number of edges traversed.
func (p *Path) Hops() int { return len(p.Gens) }

// SuperSteps returns the number of super-generator applications — the number
// of off-module (inter-cluster) transmissions when each nucleus is packed
// into one module.
func (p *Path) SuperSteps(numNucleusGens int) int {
	n := 0
	for _, g := range p.Gens {
		if g >= numNucleusGens {
			n++
		}
	}
	return n
}

// NewRouter prepares routing state for a super-IP graph.
func NewRouter(s *SuperIP) (*Router, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	nuc, err := s.nucleus()
	if err != nil {
		return nil, err
	}
	m := s.Nucleus.M()
	r := &Router{
		s:          s,
		nuc:        nuc,
		m:          m,
		numNuc:     len(s.Nucleus.Gens),
		gens:       s.IPGraph().Gens,
		plans:      map[string]*coverPlan{},
		nucTrees:   map[int32][]int32{},
		cur:        make(symbols.Label, s.L*m),
		next:       make(symbols.Label, s.L*m),
		canon:      make(symbols.Label, m),
		posOfColor: make([]int, s.L),
		target:     make([]byte, s.L),
	}
	if !s.Symmetric {
		sched, err := s.MinCoverSchedule()
		if err != nil {
			return nil, err
		}
		r.plain = newCoverPlan(sched)
	}
	// Reverse arcs of the nucleus state graph, labeled with the generator
	// that produces them, for building per-target shortest-path trees.
	r.revArcs = make([][]revArc, nuc.ix.N())
	buf := make(symbols.Label, len(nuc.seed))
	for id := int32(0); id < int32(nuc.ix.N()); id++ {
		x := nuc.ix.Label(id)
		for gi, g := range nuc.gens {
			g.Apply(buf, x)
			dest := nuc.ix.ID(buf)
			if dest < 0 {
				return nil, fmt.Errorf("core: nucleus state space not closed under generator %d", gi)
			}
			if dest != id {
				r.revArcs[dest] = append(r.revArcs[dest], revArc{src: id, gen: int32(gi)})
			}
		}
	}
	return r, nil
}

// nucTree returns (building if needed) the routing tree toward target state:
// nextGen[state] is the nucleus generator to apply at state on a shortest
// path to target, or -1 at the target itself / unreachable states.
func (r *Router) nucTree(target int32) []int32 {
	if tree, ok := r.nucTrees[target]; ok {
		return tree
	}
	n := r.nuc.ix.N()
	tree := make([]int32, n)
	for i := range tree {
		tree[i] = -1
	}
	queue := make([]int32, 0, n)
	queue = append(queue, target)
	visited := make([]bool, n)
	visited[target] = true
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, a := range r.revArcs[v] {
			if !visited[a.src] {
				visited[a.src] = true
				tree[a.src] = a.gen
				queue = append(queue, a.src)
			}
		}
	}
	r.nucTrees[target] = tree
	return tree
}

// blockStateID maps a block's content into the canonical nucleus symbol
// range by subtracting the color offset (symmetric graphs only; offset 0 for
// plain graphs), returning the canonical state id. It uses the canon
// scratch.
func (r *Router) blockStateID(content symbols.Label) (int32, byte, error) {
	var offset byte
	if r.s.Symmetric {
		offset = byte(colorOf(content, r.m) * r.m)
	}
	for i, v := range content {
		r.canon[i] = v - offset
	}
	id := r.nuc.ix.ID(r.canon)
	if id < 0 {
		return 0, 0, fmt.Errorf("core: block content %v is not a nucleus state", content)
	}
	return id, offset, nil
}

// Route computes a path from src to dst following the paper's algorithm.
// It collects the hops of Walk.
func (r *Router) Route(src, dst symbols.Label) (*Path, error) {
	path := &Path{Labels: []symbols.Label{src.Clone()}}
	if err := r.Walk(src, dst, func(gen int, lbl symbols.Label) error {
		path.Gens = append(path.Gens, gen)
		path.Labels = append(path.Labels, lbl.Clone())
		return nil
	}); err != nil {
		return nil, err
	}
	return path, nil
}

// Walk follows the route from src to dst that Route returns without
// collecting it: visit is called once per hop with the index of the
// generator applied (into SuperIP.IPGraph().Gens) and the label reached.
// The label aliases router scratch and is valid only until visit returns;
// visit must not call back into the router. An error from visit stops the
// walk and is returned.
func (r *Router) Walk(src, dst symbols.Label, visit func(gen int, lbl symbols.Label) error) error {
	m := r.m
	if len(src) != r.s.L*m || len(dst) != r.s.L*m {
		return fmt.Errorf("core: labels must have %d symbols", r.s.L*m)
	}
	plan := r.plain
	if r.s.Symmetric {
		var err error
		if plan, err = r.symmetricPlan(src, dst); err != nil {
			return err
		}
	} else if !sameMultiset(src, dst) {
		// Plain graphs: blocks are interchangeable, but contents must match
		// the destination exactly, so verify multisets agree per the model.
		return fmt.Errorf("core: src and dst are not in the same IP graph (symbol multisets differ)")
	}

	copy(r.cur, src)
	apply := func(gi int) error {
		r.gens[gi].Apply(r.next, r.cur)
		if r.next.Equal(r.cur) {
			// The generator fixes this label (e.g. swapping two identical
			// super-symbols): a self-loop, not an edge, and physically no
			// transmission — skip it but keep following the schedule.
			return nil
		}
		r.cur, r.next = r.next, r.cur
		return visit(gi, r.cur)
	}
	sched := plan.sched
	for step := 0; step <= sched.T(); step++ {
		if r.cur.Equal(dst) {
			return nil
		}
		orig := sched.Arrs[step][0]
		if plan.first[orig] == step {
			// First time this super-symbol is leftmost: sort its content to
			// the destination's super-symbol at its final position.
			if err := r.sortLeftmost(dst.Group(plan.final[orig], m), apply); err != nil {
				return err
			}
		}
		if step < sched.T() {
			if err := apply(r.numNuc + sched.Moves[step]); err != nil {
				return err
			}
		}
	}
	if !r.cur.Equal(dst) {
		return fmt.Errorf("core: route ended at %v, want %v", r.cur, dst)
	}
	return nil
}

// sameMultiset reports whether two equal-length labels hold the same
// multiset of symbols.
func sameMultiset(x, y symbols.Label) bool {
	var count [256]int
	for i := range x {
		count[x[i]]++
		count[y[i]]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// sortLeftmost emits nucleus generator applications transforming the
// leftmost block of the walk's current label into want; emit applies the
// generator with the given index (in the full generator list) to it.
func (r *Router) sortLeftmost(want symbols.Label, emit func(int) error) error {
	curID, offset, err := r.blockStateID(r.cur.Group(0, r.m))
	if err != nil {
		return err
	}
	for i, v := range want {
		r.canon[i] = v - offset
	}
	wantID := r.nuc.ix.ID(r.canon)
	if wantID < 0 {
		return fmt.Errorf("core: target block %v is not a nucleus state", want)
	}
	tree := r.nucTree(wantID)
	for curID != wantID {
		gi := tree[curID]
		if gi < 0 {
			return fmt.Errorf("core: nucleus state %d cannot reach %d", curID, wantID)
		}
		if err := emit(int(gi)); err != nil {
			return err
		}
		// Recompute the current state id from the updated label.
		curID, _, err = r.blockStateID(r.cur.Group(0, r.m))
		if err != nil {
			return err
		}
	}
	return nil
}

// symmetricPlan returns the covering schedule of a symmetric route
// (Theorem 4.3): it must end with the super-symbols in the target
// arrangement target[pos] = index of the source super-symbol (by position
// in src) whose color matches dst's color at pos. The schedule of each
// target is computed once and cached.
func (r *Router) symmetricPlan(src, dst symbols.Label) (*coverPlan, error) {
	l := r.s.L
	for c := range r.posOfColor {
		r.posOfColor[c] = -1
	}
	for pos := 0; pos < l; pos++ {
		c := colorOf(src.Group(pos, r.m), r.m)
		if c < 0 || c >= l || r.posOfColor[c] >= 0 {
			return nil, fmt.Errorf("core: src has invalid color structure at block %d", pos)
		}
		r.posOfColor[c] = pos
	}
	for pos := 0; pos < l; pos++ {
		c := colorOf(dst.Group(pos, r.m), r.m)
		if c < 0 || c >= l || r.posOfColor[c] < 0 {
			return nil, fmt.Errorf("core: dst color %d at block %d missing in src", c, pos)
		}
		r.target[pos] = byte(r.posOfColor[c])
	}
	if plan, ok := r.plans[string(r.target)]; ok {
		return plan, nil // validated and searched when it was cached
	}
	target := make(perm.Perm, l)
	for pos, v := range r.target {
		target[pos] = int(v)
	}
	if err := target.Validate(); err != nil {
		return nil, err
	}
	sched, err := r.s.CoverScheduleTo(target)
	if err != nil {
		return nil, err
	}
	plan := newCoverPlan(sched)
	r.plans[string(r.target)] = plan
	return plan, nil
}
