package sym

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstantFolding(t *testing.T) {
	cases := []struct {
		op   string
		l, r int64
		want int64
	}{
		{"+", 2, 3, 5}, {"-", 2, 3, -1}, {"*", 4, 3, 12}, {"/", 7, 2, 3},
		{"%", 7, 2, 1}, {"<<", 1, 10, 1024}, {">>", 1024, 4, 64},
		{"&", 0xff, 0x0f, 0x0f}, {"|", 1, 2, 3}, {"^", 3, 1, 2},
		{"==", 2, 2, 1}, {"!=", 2, 2, 0}, {"<", 1, 2, 1}, {"<=", 2, 2, 1},
		{">", 1, 2, 0}, {">=", 2, 2, 1}, {"&&", 1, 0, 0}, {"||", 1, 0, 1},
	}
	for _, c := range cases {
		v := NewExpr(c.op, NewInt(c.l), NewInt(c.r))
		n, ok := v.ConcreteInt()
		if !ok || n != c.want {
			t.Errorf("%d %s %d = %v, want %d", c.l, c.op, c.r, v, c.want)
		}
	}
}

func TestUnaryFolding(t *testing.T) {
	if n, _ := NewExpr("-", NewInt(5)).ConcreteInt(); n != -5 {
		t.Errorf("-5 = %d", n)
	}
	if n, _ := NewExpr("~", NewInt(0)).ConcreteInt(); n != -1 {
		t.Errorf("~0 = %d", n)
	}
	if n, _ := NewExpr("!", NewInt(0)).ConcreteInt(); n != 1 {
		t.Errorf("!0 = %d", n)
	}
}

func TestDivModByZeroStaysSymbolic(t *testing.T) {
	for _, op := range []string{"/", "%"} {
		v := NewExpr(op, NewInt(5), NewInt(0))
		if _, ok := v.ConcreteInt(); ok {
			t.Errorf("%s by zero folded", op)
		}
	}
}

func TestSymbolicStaysSymbolic(t *testing.T) {
	v := NewExpr("+", NewSym("a"), NewInt(1))
	if _, ok := v.ConcreteInt(); ok {
		t.Error("symbolic expr reported concrete")
	}
	if v.String() != "((S#a) + (I#1))" {
		t.Errorf("render = %s", v.String())
	}
}

func TestTable5Notation(t *testing.T) {
	if s := NewInt(42).String(); s != "(I#42)" {
		t.Errorf("int = %s", s)
	}
	if s := NewSym("gfp_mask").String(); s != "(S#gfp_mask)" {
		t.Errorf("sym = %s", s)
	}
	if s := NewTemp(1).String(); s != "(V#1)" {
		t.Errorf("temp = %s", s)
	}
	call := NewExpr("memalloc_noio_flags", NewSym("gfp_mask"))
	if s := call.String(); s != "(E#memalloc_noio_flags((S#gfp_mask)))" {
		t.Errorf("call = %s", s)
	}
}

func TestSymbols(t *testing.T) {
	v := NewExpr("+", NewExpr("*", NewSym("b"), NewSym("a")), NewSym("a"))
	got := v.Symbols()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("symbols = %v", got)
	}
}

func TestEqual(t *testing.T) {
	a := NewExpr("+", NewSym("x"), NewInt(1))
	b := NewExpr("+", NewSym("x"), NewInt(1))
	c := NewExpr("+", NewSym("y"), NewInt(1))
	if !Equal(a, b) {
		t.Error("identical exprs not equal")
	}
	if Equal(a, c) {
		t.Error("different exprs equal")
	}
	if !Equal(nil, nil) || Equal(a, nil) {
		t.Error("nil handling wrong")
	}
}

// TestEnvUndoIsolation checks sibling independence through the trail: a
// branch's writes are gone once it is undone, so the next sibling starts
// from the parent's bindings.
func TestEnvUndoIsolation(t *testing.T) {
	e := NewEnv()
	e.Set("x", NewInt(1))
	m := e.Mark()
	e.Set("x", NewInt(2))
	e.Set("y", NewInt(3))
	if e.Len() != 2 {
		t.Errorf("branch len = %d, want 2", e.Len())
	}
	e.Delete("y")
	if e.Get("y") != nil {
		t.Error("delete failed")
	}
	e.Undo(m)
	if n, _ := e.Get("x").ConcreteInt(); n != 1 {
		t.Error("undone branch still rebinds x")
	}
	if e.Get("y") != nil {
		t.Error("undone branch leaked y")
	}
	if e.Len() != 1 {
		t.Errorf("len after undo = %d, want 1", e.Len())
	}
}

func TestEnvNamesSorted(t *testing.T) {
	e := NewEnv()
	e.Set("b", NewInt(1))
	e.Set("a", NewInt(2))
	names := e.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
}

// Property: folding binary integer ops always agrees with direct evaluation.
func TestFoldMatchesGoSemantics(t *testing.T) {
	f := func(l, r int32) bool {
		a, b := int64(l), int64(r)
		checks := []struct {
			op   string
			want int64
			skip bool
		}{
			{"+", a + b, false},
			{"-", a - b, false},
			{"*", a * b, false},
			{"&", a & b, false},
			{"|", a | b, false},
			{"^", a ^ b, false},
			{"/", safeDiv(a, b), b == 0},
		}
		for _, c := range checks {
			if c.skip {
				continue
			}
			v := NewExpr(c.op, NewInt(a), NewInt(b))
			n, ok := v.ConcreteInt()
			if !ok || n != c.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func safeDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Property: Equal is reflexive over randomly built expression trees.
func TestEqualReflexive(t *testing.T) {
	f := func(ops []uint8, leaf int64) bool {
		v := NewSym("seed")
		names := []string{"+", "-", "*", "&", "call"}
		for _, o := range ops {
			v = &Value{Kind: Expr, Op: names[int(o)%len(names)], Args: []*Value{v, NewInt(leaf)}}
		}
		return Equal(v, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: String never returns empty and nests parens in balance.
func TestStringBalancedParens(t *testing.T) {
	f := func(ops []uint8) bool {
		v := NewSym("x")
		for _, o := range ops {
			if o%2 == 0 {
				v = NewExpr("+", v, NewSym("y"))
			} else {
				v = NewExpr("f", v)
			}
		}
		s := v.String()
		depth := 0
		for _, r := range s {
			switch r {
			case '(':
				depth++
			case ')':
				depth--
			}
			if depth < 0 {
				return false
			}
		}
		return depth == 0 && len(s) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEnvExclusions(t *testing.T) {
	e := NewEnv()
	e.Exclude("order", 0)
	if !e.Excluded("order", 0) || e.Excluded("order", 1) || e.Excluded("other", 0) {
		t.Fatal("exclusion bookkeeping wrong")
	}
	// A branch's exclusions are undone with it; the parent's survive.
	m := e.Mark()
	e.Exclude("order", 5)
	if !e.Excluded("order", 0) || !e.Excluded("order", 5) {
		t.Fatal("branch lost an exclusion")
	}
	e.Undo(m)
	if e.Excluded("order", 5) {
		t.Fatal("undone branch leaked exclusion into parent")
	}
	if !e.Excluded("order", 0) {
		t.Fatal("undo lost parent exclusion")
	}
	// A concrete rebinding supersedes exclusions.
	e.Set("order", NewInt(3))
	if e.Excluded("order", 0) {
		t.Fatal("Set must clear exclusions")
	}
	e.Exclude("order", 7)
	e.Delete("order")
	if e.Excluded("order", 7) {
		t.Fatal("Delete must clear exclusions")
	}
}

func TestEnvDeleteFields(t *testing.T) {
	e := NewEnv()
	for _, n := range []string{"q", "q->len", "q.flags", "qq->len", "q2", "p->q"} {
		e.Set(n, NewSym(n))
	}
	e.Exclude("q->state", 0)
	m := e.Mark()
	e.DeleteFields("q")
	if got := strings.Join(e.Names(), " "); got != "p->q q q2 qq->len" {
		t.Errorf("after DeleteFields(q): %s", got)
	}
	if !e.Excluded("q->state", 0) {
		t.Error("DeleteFields touched an exclusion without a binding")
	}
	e.Undo(m)
	if got := strings.Join(e.Names(), " "); got != "p->q q q->len q.flags q2 qq->len" {
		t.Errorf("after Undo: %s", got)
	}
}

// envSnapshot is a deep copy of an Env's bindings and disequality sets.
type envSnapshot struct {
	m  map[string]*Value
	ne map[string]map[int64]bool
}

func snapshotEnv(e *Env) envSnapshot {
	s := envSnapshot{m: map[string]*Value{}, ne: map[string]map[int64]bool{}}
	for k, v := range e.m {
		s.m[k] = v
	}
	for k, set := range e.ne {
		cp := map[int64]bool{}
		for n := range set {
			cp[n] = true
		}
		s.ne[k] = cp
	}
	return s
}

func (s envSnapshot) equal(e *Env) bool {
	return reflect.DeepEqual(s, snapshotEnv(e))
}

// checkFieldCounts verifies DeleteFields' index against a recount.
func checkFieldCounts(t *testing.T, e *Env) {
	t.Helper()
	want := map[string]int{}
	for n := range e.m {
		if root, ok := fieldRoot(n); ok {
			want[root]++
		}
	}
	for root, n := range e.fields {
		if n != want[root] {
			t.Fatalf("fields[%q] = %d, want %d", root, n, want[root])
		}
	}
}

// TestEnvUndoRestoresMark is the trail's property test: random nested
// sequences of Set/Delete/Exclude/DeleteFields, each undone to its Mark,
// leave the Env equal to a deep snapshot taken at the mark — bindings and
// disequality sets alike.
func TestEnvUndoRestoresMark(t *testing.T) {
	names := []string{"a", "b", "c", "a->f", "a.g", "b->f"}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		e := NewEnv()
		var rec func(depth int)
		rec = func(depth int) {
			snap := snapshotEnv(e)
			m := e.Mark()
			for i := rng.Intn(12); i > 0; i-- {
				n := names[rng.Intn(len(names))]
				switch rng.Intn(5) {
				case 0:
					e.Set(n, NewInt(int64(rng.Intn(4))))
				case 1:
					e.Delete(n)
				case 2:
					e.DeleteFields(n)
				default:
					e.Exclude(n, int64(rng.Intn(4)))
				}
				if depth < 4 && rng.Intn(3) == 0 {
					rec(depth + 1)
				}
			}
			e.Undo(m)
			checkFieldCounts(t, e)
			if !snap.equal(e) {
				t.Fatalf("trial %d depth %d: Undo did not restore the mark:\nwant %v\ngot  %v", trial, depth, snap, snapshotEnv(e))
			}
		}
		// Siblings on one Env: each starts from the state its parent left.
		for i := 0; i < 3; i++ {
			e.Set(names[rng.Intn(len(names))], NewSym("root"))
			e.Exclude(names[rng.Intn(len(names))], 9)
			rec(0)
		}
	}
}

func TestValueStringMatchesSprintf(t *testing.T) {
	// The strconv renderer must match the fmt verbs it replaced.
	for _, v := range []*Value{
		NewInt(-42), NewInt(0), NewSym("gfp_mask"), NewTemp(17),
		NewStr("a\"b\n\x00é"), NewStr(""),
	} {
		var want string
		switch v.Kind {
		case Int:
			want = fmt.Sprintf("(I#%d)", v.N)
		case Sym:
			want = fmt.Sprintf("(S#%s)", v.Name)
		case Temp:
			want = fmt.Sprintf("(V#%s)", v.Name)
		case Str:
			want = fmt.Sprintf("(I#%q)", v.Name)
		}
		if got := v.String(); got != want {
			t.Errorf("String() = %s, want %s", got, want)
		}
	}
	call := NewExpr("kmalloc", NewSym("n"), nil, NewExpr("-", NewSym("x")))
	if got, want := call.String(), "(E#kmalloc((S#n), S#unknown, (-(S#x))))"; got != want {
		t.Errorf("call String() = %s, want %s", got, want)
	}
	if got, want := NewExpr("f").String(), "(E#f())"; got != want {
		t.Errorf("nullary String() = %s, want %s", got, want)
	}
}
