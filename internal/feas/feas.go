// Package feas is a lightweight path-feasibility layer over the symbolic
// domain of internal/sym. It accumulates, per execution path, an interval
// domain (lo/hi over int64 with ±∞ open ends) and a disequality set for
// every stable term a branch condition constrains, and reports when the
// accumulated conditions become mutually contradictory — at which point the
// path extractor can discard the continuation before any checker sees it.
//
// The layer mirrors the paper's observation (§5.3) that infeasible paths
// dominate the false-positive taxonomy: conditions like `x > 3` followed by
// `x < 2` on the same path can never execute together, so warnings found on
// such paths are noise.
//
// Three precision tiers share the implementation:
//
//	Fast      — the layer is disabled entirely (callers hold a nil *State);
//	            analysis behaves byte-identically to a build without it.
//	Balanced  — interval and disequality propagation against integer
//	            constants, plus &&/||/! distribution.
//	Strict    — adds cross-condition equality unification (term classes
//	            merged by `a == b` facts) under a per-function step budget
//	            from internal/guard; when the budget is exhausted the state
//	            freezes and simply stops learning, which prunes less but is
//	            never unsound.
//
// Soundness rests on term stability: facts are only recorded for terms
// built from concrete integers, free symbols and pure operators (see
// sym.Value.Stable). Temporaries and call results render identically across
// occurrences that may hold different values, so they are never constrained.
package feas

import (
	"fmt"
	"math"

	"pallas/internal/guard"
	"pallas/internal/sym"
)

// Tier selects how much feasibility work the extractor performs.
type Tier int

// The precision tiers, cheapest first.
const (
	// Fast disables the feasibility layer: today's behavior, byte-identical.
	Fast Tier = iota
	// Balanced prunes on interval/disequality contradictions vs constants.
	Balanced
	// Strict adds cross-condition equality unification under a step budget.
	Strict
)

// String renders the tier as its flag spelling.
func (t Tier) String() string {
	switch t {
	case Fast:
		return "fast"
	case Balanced:
		return "balanced"
	case Strict:
		return "strict"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// ParseTier parses a -precision flag value. The empty string means Fast, so
// zero-valued configurations keep the historical behavior.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "fast":
		return Fast, nil
	case "balanced":
		return Balanced, nil
	case "strict":
		return Strict, nil
	}
	return Fast, fmt.Errorf("feas: unknown precision tier %q (want fast, balanced or strict)", s)
}

// DefaultStrictSteps is the per-function step budget of the strict tier:
// one step per condition node the layer inspects. Exhaustion freezes the
// state (no further learning) rather than failing the function, so the
// bound only ever reduces pruning. The value is a constant, not wall-clock,
// so strict-tier output is deterministic at any worker count.
const DefaultStrictSteps = 1 << 14

// Interval is a closed integer interval with independently-open ends.
// The zero value is (-∞, +∞).
type Interval struct {
	Lo, Hi       int64
	HasLo, HasHi bool
}

// Empty reports whether no integer satisfies the interval.
func (iv Interval) Empty() bool { return iv.HasLo && iv.HasHi && iv.Lo > iv.Hi }

// Contains reports whether n satisfies the interval.
func (iv Interval) Contains(n int64) bool {
	if iv.HasLo && n < iv.Lo {
		return false
	}
	if iv.HasHi && n > iv.Hi {
		return false
	}
	return true
}

// String renders the interval with ∞ for open ends.
func (iv Interval) String() string {
	lo, hi := "-inf", "+inf"
	if iv.HasLo {
		lo = fmt.Sprintf("%d", iv.Lo)
	}
	if iv.HasHi {
		hi = fmt.Sprintf("%d", iv.Hi)
	}
	return "[" + lo + ", " + hi + "]"
}

func intersect(a, b Interval) Interval {
	out := a
	if b.HasLo && (!out.HasLo || b.Lo > out.Lo) {
		out.Lo, out.HasLo = b.Lo, true
	}
	if b.HasHi && (!out.HasHi || b.Hi < out.Hi) {
		out.Hi, out.HasHi = b.Hi, true
	}
	return out
}

// State is the feasibility state of one path prefix. It is not safe for
// concurrent use. The extractor backtracks over one State per function
// walk, exactly like the symbolic environment: Mark before a branch edge,
// Undo after it. A nil *State is the Fast tier: every method is a no-op and
// Contradiction reports false.
type State struct {
	tier Tier
	// iv and ne are keyed by class representative (the term rendering
	// itself outside Strict, where find is the identity).
	iv map[string]Interval
	ne map[string]map[int64]bool
	// eq holds the Strict tier's union-find parent pointers over term
	// renderings; absent keys are their own class.
	eq map[string]string
	// trail records every write to iv, ne and eq, so Undo can roll them
	// back to a Mark.
	trail []undo
	// budget bounds Strict-tier work across the whole function walk — not
	// each path — so Undo deliberately leaves it spent.
	budget *guard.Budget
	// contraN counts contradiction events over the whole walk; Undo leaves
	// it as is.
	contraN *int64
	contra  bool
	frozen  bool
}

// undo is one trail entry: the prior state of one map slot.
type undo struct {
	op  undoOp
	key string
	iv  Interval       // undoIv: the prior interval, if had
	had bool           // undoIv: whether iv[key] was present
	set map[int64]bool // undoNe: the prior set (nil: absent)
	n   int64          // undoNeAdd: the value added to ne[key]
}

type undoOp uint8

const (
	undoIv    undoOp = iota // iv[key] was written or deleted
	undoNe                  // ne[key] was created or deleted
	undoNeAdd               // n was added to the set ne[key]
	undoEq                  // eq[key] was set; it was absent before
)

// Mark is a point on a State's undo trail, with the flags Undo restores.
type Mark struct {
	n              int
	contra, frozen bool
}

// New returns the root feasibility state for one function walk, or nil for
// the Fast tier. For Strict, budget bounds the total feasibility work of
// the function; nil applies DefaultStrictSteps.
func New(tier Tier, budget *guard.Budget) *State {
	if tier == Fast {
		return nil
	}
	s := &State{
		tier:    tier,
		iv:      map[string]Interval{},
		ne:      map[string]map[int64]bool{},
		contraN: new(int64),
	}
	if tier == Strict {
		s.eq = map[string]string{}
		if budget == nil {
			budget = guard.NewBudget(nil, guard.Limits{MaxSteps: DefaultStrictSteps})
		}
		s.budget = budget
	}
	return s
}

// Mark returns the current point on the undo trail.
func (s *State) Mark() Mark {
	if s == nil {
		return Mark{}
	}
	return Mark{n: len(s.trail), contra: s.contra, frozen: s.frozen}
}

// Undo restores the state to m: its interval, disequality and equality
// facts and its contradiction and frozen flags. The step budget and the
// contradiction tally stay as spent. Marks must be undone in LIFO order.
func (s *State) Undo(m Mark) {
	if s == nil {
		return
	}
	for i := len(s.trail) - 1; i >= m.n; i-- {
		u := &s.trail[i]
		switch u.op {
		case undoIv:
			if u.had {
				s.iv[u.key] = u.iv
			} else {
				delete(s.iv, u.key)
			}
		case undoNe:
			if u.set != nil {
				s.ne[u.key] = u.set
			} else {
				delete(s.ne, u.key)
			}
		case undoNeAdd:
			delete(s.ne[u.key], u.n)
		case undoEq:
			delete(s.eq, u.key)
		}
	}
	clear(s.trail[m.n:])
	s.trail = s.trail[:m.n]
	s.contra, s.frozen = m.contra, m.frozen
}

// setIv writes iv[key], trailing the prior value.
func (s *State) setIv(key string, iv Interval) {
	old, had := s.iv[key]
	s.trail = append(s.trail, undo{op: undoIv, key: key, iv: old, had: had})
	s.iv[key] = iv
}

// deleteIv removes iv[key], trailing the prior value.
func (s *State) deleteIv(key string) {
	if old, had := s.iv[key]; had {
		s.trail = append(s.trail, undo{op: undoIv, key: key, iv: old, had: true})
		delete(s.iv, key)
	}
}

// addNe adds n to the disequality set of key, trailing the change.
func (s *State) addNe(key string, n int64) {
	set := s.ne[key]
	if set == nil {
		set = map[int64]bool{}
		s.trail = append(s.trail, undo{op: undoNe, key: key})
		s.ne[key] = set
	}
	if !set[n] {
		s.trail = append(s.trail, undo{op: undoNeAdd, key: key, n: n})
		set[n] = true
	}
}

// deleteNe removes the disequality set of key, trailing it.
func (s *State) deleteNe(key string) {
	if set := s.ne[key]; set != nil {
		s.trail = append(s.trail, undo{op: undoNe, key: key, set: set})
		delete(s.ne, key)
	}
}

// Contradiction reports whether the accumulated conditions are mutually
// unsatisfiable — the path prefix can never execute.
func (s *State) Contradiction() bool { return s != nil && s.contra }

// Contradictions returns the number of contradiction events recorded over
// the whole walk, including those on branches since undone.
func (s *State) Contradictions() int64 {
	if s == nil || s.contraN == nil {
		return 0
	}
	return *s.contraN
}

func (s *State) contradict() {
	if !s.contra {
		s.contra = true
		if s.contraN != nil {
			*s.contraN++
		}
	}
}

// step charges one unit of strict-tier work; it reports true when the state
// just froze (budget exhausted). Balanced states carry no budget and never
// freeze.
func (s *State) step() bool {
	if s.budget == nil {
		return false
	}
	if s.budget.Step() != nil {
		s.frozen = true
		return true
	}
	return false
}

// Assert records that condition v evaluated to truth on this path and
// propagates: negation flips, conjunctions distribute on the true edge,
// disjunctions on the false edge, comparisons against integer constants
// narrow the term's interval or disequality set, and (Strict only)
// equalities between two stable terms unify their constraint classes.
// A contradiction with previously recorded facts sets Contradiction.
func (s *State) Assert(v *sym.Value, truth bool) {
	if s == nil || s.contra || s.frozen {
		return
	}
	if s.step() {
		return
	}
	if v == nil {
		return
	}
	switch v.Kind {
	case sym.Int:
		if (v.N != 0) != truth {
			s.contradict()
		}
	case sym.Sym:
		s.assertTruthy(v, truth)
	case sym.Expr:
		switch {
		case v.Op == "!" && len(v.Args) == 1:
			s.Assert(v.Args[0], !truth)
		case v.Op == "&&" && len(v.Args) == 2:
			// A false conjunction is a disjunction of refutations; nothing
			// sound can be learned about either operand alone.
			if truth {
				s.Assert(v.Args[0], true)
				s.Assert(v.Args[1], true)
			}
		case v.Op == "||" && len(v.Args) == 2:
			if !truth {
				s.Assert(v.Args[0], false)
				s.Assert(v.Args[1], false)
			}
		case isCmp(v.Op) && len(v.Args) == 2:
			op := v.Op
			if !truth {
				op = negate(op)
			}
			s.assertCmp(op, v.Args[0], v.Args[1])
		default:
			s.assertTruthy(v, truth)
		}
	}
	// Temp and Str carry no constrainable integer value.
}

// assertTruthy records `term != 0` (taken) or `term == 0` (not taken).
func (s *State) assertTruthy(v *sym.Value, truth bool) {
	if !v.Stable() {
		return
	}
	op := "=="
	if truth {
		op = "!="
	}
	s.assertConst(v.String(), op, 0)
}

// assertCmp handles a binary comparison with the already-negated operator.
func (s *State) assertCmp(op string, l, r *sym.Value) {
	ln, lConst := l.ConcreteInt()
	rn, rConst := r.ConcreteInt()
	switch {
	case lConst && rConst:
		// Normally folded away by sym.NewExpr; decide directly if reached.
		if !cmpInts(op, ln, rn) {
			s.contradict()
		}
	case rConst:
		if l.Stable() {
			s.assertConst(l.String(), op, rn)
		}
	case lConst:
		if r.Stable() {
			s.assertConst(r.String(), mirror(op), ln)
		}
	default:
		if s.tier != Strict || !l.Stable() || !r.Stable() {
			return
		}
		lk, rk := l.String(), r.String()
		switch op {
		case "==":
			s.unify(lk, rk)
		case "!=", "<", ">":
			// Strict comparisons and disequality refute themselves over one
			// class: x < x (or a != b with a == b recorded) cannot hold.
			if s.find(lk) == s.find(rk) {
				s.contradict()
			}
		}
	}
}

// assertConst narrows the constraints of one stable term against an
// integer constant: `term op K`.
func (s *State) assertConst(term, op string, k int64) {
	rep := s.find(term)
	iv := s.iv[rep]
	switch op {
	case "==":
		if s.ne[rep][k] {
			s.contradict()
			return
		}
		iv = intersect(iv, Interval{Lo: k, Hi: k, HasLo: true, HasHi: true})
	case "!=":
		if iv.HasLo && iv.HasHi && iv.Lo == iv.Hi && iv.Lo == k {
			s.contradict()
			return
		}
		s.addNe(rep, k)
		return
	case "<":
		if k == math.MinInt64 {
			s.contradict()
			return
		}
		iv = intersect(iv, Interval{Hi: k - 1, HasHi: true})
	case "<=":
		iv = intersect(iv, Interval{Hi: k, HasHi: true})
	case ">":
		if k == math.MaxInt64 {
			s.contradict()
			return
		}
		iv = intersect(iv, Interval{Lo: k + 1, HasLo: true})
	case ">=":
		iv = intersect(iv, Interval{Lo: k, HasLo: true})
	default:
		return
	}
	if iv.Empty() {
		s.contradict()
		return
	}
	if iv.HasLo && iv.HasHi && iv.Lo == iv.Hi && s.ne[rep][iv.Lo] {
		s.contradict()
		return
	}
	s.setIv(rep, iv)
}

// find returns the constraint-class representative of a term. Outside the
// Strict tier every term is its own class. There is no path compression: a
// lookup never writes, so Undo only has to reverse unify's parent links.
// Chains are at most as long as the number of equalities on one path.
func (s *State) find(term string) string {
	if s.eq == nil {
		return term
	}
	for {
		p, ok := s.eq[term]
		if !ok {
			return term
		}
		term = p
	}
}

// unify merges the constraint classes of two terms (Strict tier): their
// intervals intersect and their disequality sets union. The
// lexicographically smaller representative wins, keeping merges
// deterministic regardless of assertion order.
func (s *State) unify(a, b string) {
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		return
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	s.trail = append(s.trail, undo{op: undoEq, key: rb})
	s.eq[rb] = ra
	iv := intersect(s.iv[ra], s.iv[rb])
	s.deleteIv(rb)
	if neb := s.ne[rb]; neb != nil {
		for n := range neb {
			s.addNe(ra, n)
		}
		s.deleteNe(rb)
	}
	if iv.Empty() {
		s.contradict()
		return
	}
	if iv.HasLo && iv.HasHi && iv.Lo == iv.Hi && s.ne[ra][iv.Lo] {
		s.contradict()
		return
	}
	s.setIv(ra, iv)
}

func isCmp(op string) bool {
	switch op {
	case "==", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// negate returns the comparison holding when `l op r` is false.
func negate(op string) string {
	switch op {
	case "==":
		return "!="
	case "!=":
		return "=="
	case "<":
		return ">="
	case "<=":
		return ">"
	case ">":
		return "<="
	case ">=":
		return "<"
	}
	return op
}

// mirror returns the comparison with swapped operands: `K op x` ⇔
// `x mirror(op) K`.
func mirror(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // == and != are symmetric
}

func cmpInts(op string, l, r int64) bool {
	switch op {
	case "==":
		return l == r
	case "!=":
		return l != r
	case "<":
		return l < r
	case "<=":
		return l <= r
	case ">":
		return l > r
	case ">=":
		return l >= r
	}
	return true
}
