package feas

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pallas/internal/guard"
	"pallas/internal/sym"
)

func cmpv(op string, l, r *sym.Value) *sym.Value {
	// Build without sym.NewExpr folding so tests control the exact shape.
	return &sym.Value{Kind: sym.Expr, Op: op, Args: []*sym.Value{l, r}}
}

func x() *sym.Value        { return sym.NewSym("x") }
func y() *sym.Value        { return sym.NewSym("y") }
func k(n int64) *sym.Value { return sym.NewInt(n) }

func TestParseTier(t *testing.T) {
	cases := []struct {
		in   string
		want Tier
		err  bool
	}{
		{"", Fast, false},
		{"fast", Fast, false},
		{"balanced", Balanced, false},
		{"strict", Strict, false},
		{"turbo", Fast, true},
		{"FAST", Fast, true},
	}
	for _, c := range cases {
		got, err := ParseTier(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseTier(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.want, c.err)
		}
	}
	for _, tier := range []Tier{Fast, Balanced, Strict} {
		back, err := ParseTier(tier.String())
		if err != nil || back != tier {
			t.Errorf("round trip %v: got %v, %v", tier, back, err)
		}
	}
}

func TestFastTierIsNil(t *testing.T) {
	s := New(Fast, nil)
	if s != nil {
		t.Fatalf("New(Fast) = %v, want nil", s)
	}
	// Every method must be a safe no-op on nil.
	s.Assert(cmpv(">", x(), k(3)), true)
	s.Undo(s.Mark())
	if s.Contradiction() || s.Contradictions() != 0 {
		t.Fatal("nil state must stay inert")
	}
}

func TestIntervalContradictions(t *testing.T) {
	cases := []struct {
		name   string
		assert func(s *State)
		want   bool
	}{
		{"gt3-lt2", func(s *State) {
			s.Assert(cmpv(">", x(), k(3)), true)
			s.Assert(cmpv("<", x(), k(2)), true)
		}, true},
		{"gt3-lt5", func(s *State) {
			s.Assert(cmpv(">", x(), k(3)), true)
			s.Assert(cmpv("<", x(), k(5)), true)
		}, false},
		{"ge-le-cross", func(s *State) {
			s.Assert(cmpv(">=", x(), k(10)), true)
			s.Assert(cmpv("<=", x(), k(9)), true)
		}, true},
		{"eq-then-neq", func(s *State) {
			s.Assert(cmpv("==", x(), k(7)), true)
			s.Assert(cmpv("!=", x(), k(7)), true)
		}, true},
		{"neq-then-eq", func(s *State) {
			s.Assert(cmpv("!=", x(), k(7)), true)
			s.Assert(cmpv("==", x(), k(7)), true)
		}, true},
		{"eq-outside-interval", func(s *State) {
			s.Assert(cmpv(">", x(), k(0)), true)
			s.Assert(cmpv("==", x(), k(-4)), true)
		}, true},
		{"point-interval-then-excluded", func(s *State) {
			s.Assert(cmpv(">=", x(), k(5)), true)
			s.Assert(cmpv("!=", x(), k(5)), true)
			s.Assert(cmpv("<=", x(), k(5)), true)
		}, true},
		{"false-edge-negates", func(s *State) {
			// !(x <= 2) and then x == 1.
			s.Assert(cmpv("<=", x(), k(2)), false)
			s.Assert(cmpv("==", x(), k(1)), true)
		}, true},
		{"distinct-terms-independent", func(s *State) {
			s.Assert(cmpv(">", x(), k(3)), true)
			s.Assert(cmpv("<", y(), k(2)), true)
		}, false},
		{"min-int-lt", func(s *State) {
			s.Assert(cmpv("<", x(), k(math.MinInt64)), true)
		}, true},
		{"max-int-gt", func(s *State) {
			s.Assert(cmpv(">", x(), k(math.MaxInt64)), true)
		}, true},
	}
	for _, tier := range []Tier{Balanced, Strict} {
		for _, c := range cases {
			s := New(tier, nil)
			c.assert(s)
			if s.Contradiction() != c.want {
				t.Errorf("%v/%s: contradiction = %v, want %v", tier, c.name, s.Contradiction(), c.want)
			}
		}
	}
}

func TestConstantOnLeftMirrors(t *testing.T) {
	// `3 < x` then `2 > x` is the mirrored form of the gt3-lt2 case.
	s := New(Balanced, nil)
	s.Assert(cmpv("<", k(3), x()), true)
	s.Assert(cmpv(">", k(2), x()), true)
	if !s.Contradiction() {
		t.Fatal("mirrored constant-on-left comparisons must contradict")
	}
	s = New(Balanced, nil)
	s.Assert(cmpv("==", k(7), x()), true)
	s.Assert(cmpv("!=", k(7), x()), true)
	if !s.Contradiction() {
		t.Fatal("constant-on-left equality must behave like constant-on-right")
	}
}

func TestBooleanDistribution(t *testing.T) {
	and := func(l, r *sym.Value) *sym.Value { return cmpv("&&", l, r) }
	or := func(l, r *sym.Value) *sym.Value { return cmpv("||", l, r) }
	not := func(v *sym.Value) *sym.Value {
		return &sym.Value{Kind: sym.Expr, Op: "!", Args: []*sym.Value{v}}
	}

	// (x > 3 && y > 0) taken, then x < 2.
	s := New(Balanced, nil)
	s.Assert(and(cmpv(">", x(), k(3)), cmpv(">", y(), k(0))), true)
	s.Assert(cmpv("<", x(), k(2)), true)
	if !s.Contradiction() {
		t.Fatal("&& must distribute on the true edge")
	}

	// (x > 3 || y > 0) not taken refutes both, then y == 1.
	s = New(Balanced, nil)
	s.Assert(or(cmpv(">", x(), k(3)), cmpv(">", y(), k(0))), false)
	s.Assert(cmpv("==", y(), k(1)), true)
	if !s.Contradiction() {
		t.Fatal("|| must distribute on the false edge")
	}

	// !(a && b) false edge means a && b holds.
	s = New(Balanced, nil)
	s.Assert(not(and(cmpv(">", x(), k(3)), cmpv(">", y(), k(0)))), false)
	s.Assert(cmpv("<=", x(), k(3)), true)
	if !s.Contradiction() {
		t.Fatal("!(a && b) false must imply both conjuncts")
	}

	// The false edge of a conjunction learns nothing about either operand.
	s = New(Balanced, nil)
	s.Assert(and(cmpv(">", x(), k(3)), cmpv(">", y(), k(0))), false)
	s.Assert(cmpv("==", x(), k(10)), true)
	if s.Contradiction() {
		t.Fatal("a refuted conjunction must not constrain its operands")
	}
}

func TestTruthiness(t *testing.T) {
	// Taken truthiness excludes zero.
	s := New(Balanced, nil)
	s.Assert(x(), true)
	s.Assert(cmpv("==", x(), k(0)), true)
	if !s.Contradiction() {
		t.Fatal("if (x) taken then x == 0 must contradict")
	}
	// Refuted truthiness pins zero.
	s = New(Balanced, nil)
	s.Assert(x(), false)
	s.Assert(cmpv("==", x(), k(3)), true)
	if !s.Contradiction() {
		t.Fatal("if (x) not taken then x == 3 must contradict")
	}
	// Concrete conditions decide immediately.
	s = New(Balanced, nil)
	s.Assert(k(0), true)
	if !s.Contradiction() {
		t.Fatal("asserting a concrete zero as taken must contradict")
	}
}

func TestUnstableTermsAreNeverConstrained(t *testing.T) {
	call := &sym.Value{Kind: sym.Expr, Op: "f", Args: nil} // E#f(): call result
	temp := sym.NewTemp(1)
	deref := &sym.Value{Kind: sym.Expr, Op: "*", Args: []*sym.Value{sym.NewSym("p")}}
	for _, v := range []*sym.Value{call, temp, deref} {
		s := New(Strict, nil)
		s.Assert(cmpv(">", v, k(3)), true)
		s.Assert(cmpv("<", v, k(2)), true)
		if s.Contradiction() {
			t.Errorf("unstable term %s must not accumulate constraints", v)
		}
	}
	// A pure compound over stable leaves is constrained.
	sum := &sym.Value{Kind: sym.Expr, Op: "+", Args: []*sym.Value{x(), k(1)}}
	s := New(Balanced, nil)
	s.Assert(cmpv(">", sum, k(3)), true)
	s.Assert(cmpv("<", sum, k(2)), true)
	if !s.Contradiction() {
		t.Error("pure compound terms should be constrained")
	}
}

func TestStrictEqualityUnification(t *testing.T) {
	// a == b, a > 5, b < 3: only Strict sees the cross-term conflict.
	build := func(tier Tier) *State {
		s := New(tier, nil)
		s.Assert(cmpv("==", x(), y()), true)
		s.Assert(cmpv(">", x(), k(5)), true)
		s.Assert(cmpv("<", y(), k(3)), true)
		return s
	}
	if build(Balanced).Contradiction() {
		t.Fatal("balanced must not unify cross-term equalities")
	}
	if !build(Strict).Contradiction() {
		t.Fatal("strict must propagate constraints across a == b")
	}

	// a == b then a != b.
	s := New(Strict, nil)
	s.Assert(cmpv("==", x(), y()), true)
	s.Assert(cmpv("!=", x(), y()), true)
	if !s.Contradiction() {
		t.Fatal("a == b then a != b must contradict under strict")
	}

	// x < x is self-refuting under strict.
	s = New(Strict, nil)
	s.Assert(cmpv("<", x(), x()), true)
	if !s.Contradiction() {
		t.Fatal("x < x must contradict under strict")
	}

	// Unification is order-independent: constraints first, equality second.
	s = New(Strict, nil)
	s.Assert(cmpv(">", x(), k(5)), true)
	s.Assert(cmpv("<", y(), k(3)), true)
	s.Assert(cmpv("==", x(), y()), true)
	if !s.Contradiction() {
		t.Fatal("late unification must still intersect accumulated intervals")
	}
}

// TestUndoIsolation checks sibling independence through the trail: a
// contradiction on one branch is gone once the branch is undone, so the
// next sibling starts from the parent's facts.
func TestUndoIsolation(t *testing.T) {
	s := New(Balanced, nil)
	s.Assert(cmpv(">", x(), k(3)), true)
	m := s.Mark()
	s.Assert(cmpv("<", x(), k(2)), true)
	if !s.Contradiction() {
		t.Fatal("branch a should contradict")
	}
	s.Undo(m)
	if s.Contradiction() {
		t.Fatal("contradiction in one branch must not leak to siblings")
	}
	s.Assert(cmpv("<", x(), k(10)), true)
	if s.Contradiction() {
		t.Fatal("branch b is feasible")
	}
	// The parent's x > 3 survived branch a's undo.
	s.Assert(cmpv("<", x(), k(4)), true)
	if !s.Contradiction() {
		t.Fatal("undo lost the parent's x > 3")
	}
	// The contradiction tally counts every branch's events.
	if s.Contradictions() != 2 {
		t.Fatalf("walk tally = %d, want 2", s.Contradictions())
	}
}

func TestStrictBudgetFreezesLearning(t *testing.T) {
	// A 2-step budget exhausts after two assertions; later contradictory
	// facts are silently ignored — less pruning, never a wrong prune.
	budget := guard.NewBudget(nil, guard.Limits{MaxSteps: 2})
	s := New(Strict, budget)
	s.Assert(cmpv(">", x(), k(3)), true)
	s.Assert(cmpv(">", y(), k(0)), true)
	s.Assert(cmpv("<", x(), k(2)), true) // would contradict, but frozen
	s.Assert(cmpv("<", x(), k(2)), true)
	if s.Contradiction() {
		t.Fatal("a frozen state must stop learning instead of contradicting")
	}
}

// snapshot is a deep copy of a State's facts and flags.
type snapshot struct {
	iv             map[string]Interval
	ne             map[string]map[int64]bool
	eq             map[string]string
	contra, frozen bool
}

func snap(s *State) snapshot {
	c := snapshot{iv: map[string]Interval{}, ne: map[string]map[int64]bool{}, eq: map[string]string{}, contra: s.contra, frozen: s.frozen}
	for k, v := range s.iv {
		c.iv[k] = v
	}
	for k, set := range s.ne {
		cp := map[int64]bool{}
		for n := range set {
			cp[n] = true
		}
		c.ne[k] = cp
	}
	for k, v := range s.eq {
		c.eq[k] = v
	}
	return c
}

// randomCond builds a condition over a few stable terms, mixing
// comparisons against constants, term-term comparisons (unified at strict),
// truthiness, negation and &&/||.
func randomCond(rng *rand.Rand, depth int) *sym.Value {
	terms := []*sym.Value{x(), y(), sym.NewSym("z"), cmpv("+", x(), k(1))}
	term := func() *sym.Value { return terms[rng.Intn(len(terms))] }
	ops := []string{"==", "!=", "<", "<=", ">", ">="}
	switch r := rng.Intn(8); {
	case r < 3:
		return cmpv(ops[rng.Intn(len(ops))], term(), k(int64(rng.Intn(7)-1)))
	case r < 5:
		return cmpv(ops[rng.Intn(len(ops))], term(), term())
	case r < 6:
		return term()
	case depth < 2 && r < 7:
		return &sym.Value{Kind: sym.Expr, Op: "!", Args: []*sym.Value{randomCond(rng, depth+1)}}
	case depth < 2:
		op := "&&"
		if rng.Intn(2) == 0 {
			op = "||"
		}
		return cmpv(op, randomCond(rng, depth+1), randomCond(rng, depth+1))
	}
	return cmpv(">", term(), k(2))
}

// TestUndoRestoresMark is the trail's property test: random nested Assert
// sequences at balanced and strict (with budgets small enough to freeze
// mid-sequence), each undone to its Mark, leave the State equal to a deep
// snapshot taken at the mark — intervals, disequality sets, equality
// classes, contra and frozen.
func TestUndoRestoresMark(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tier := range []Tier{Balanced, Strict} {
		for trial := 0; trial < 300; trial++ {
			var budget *guard.Budget
			if tier == Strict && trial%3 == 0 {
				budget = guard.NewBudget(nil, guard.Limits{MaxSteps: int64(5 + rng.Intn(60))})
			}
			s := New(tier, budget)
			var rec func(depth int)
			rec = func(depth int) {
				want := snap(s)
				m := s.Mark()
				for i := rng.Intn(8); i > 0; i-- {
					s.Assert(randomCond(rng, 0), rng.Intn(2) == 0)
					if depth < 4 && rng.Intn(3) == 0 {
						rec(depth + 1)
					}
				}
				s.Undo(m)
				if got := snap(s); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v trial %d depth %d: Undo did not restore the mark:\nwant %+v\ngot  %+v", tier, trial, depth, want, got)
				}
			}
			for i := 0; i < 3; i++ {
				// Keep root facts satisfiable so the branches have facts to
				// build on rather than a state that ignores every Assert.
				m := s.Mark()
				if s.Assert(randomCond(rng, 0), true); s.Contradiction() {
					s.Undo(m)
				}
				rec(0)
			}
		}
	}
}
