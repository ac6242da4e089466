// Package sym implements the symbolic value domain used by the path
// extractor. Table 5 of the paper shows the notation it reproduces:
//
//	S#name   symbolic expression (an input or otherwise unknown value)
//	I#n      concrete integer
//	V#n      temporary introduced for a call result
//	E#f(...) symbol representing the result of an expression / call
//
// Values are immutable; environments map variable names to values.
package sym

import (
	"sort"
	"strconv"
)

// Kind discriminates symbolic values.
type Kind int

// Value kinds.
const (
	// Int is a concrete integer (I#).
	Int Kind = iota
	// Sym is a free symbol, typically a function input (S#).
	Sym
	// Temp is a fresh temporary introduced for an opaque result (V#).
	Temp
	// Expr is the symbolic result of applying an operator or call (E#).
	Expr
	// Str is a string constant.
	Str
)

// Value is one symbolic value.
type Value struct {
	Kind Kind
	// Int payload.
	N int64
	// Sym/Temp payload: name ("gfp_mask") or temp id ("1").
	Name string
	// Expr payload: operator or callee name plus operands.
	Op   string
	Args []*Value
}

// NewInt returns a concrete integer value. Small integers, which literals
// and folded comparisons produce constantly, are shared: Values are
// immutable, so one instance serves every use.
func NewInt(n int64) *Value {
	if n >= minSmallInt && n <= maxSmallInt {
		return &smallInts[n-minSmallInt]
	}
	return &Value{Kind: Int, N: n}
}

const minSmallInt, maxSmallInt = -64, 255

var smallInts = func() (t [maxSmallInt - minSmallInt + 1]Value) {
	for i := range t {
		t[i] = Value{Kind: Int, N: int64(i) + minSmallInt}
	}
	return t
}()

// NewSym returns a free symbol named after an input variable.
func NewSym(name string) *Value { return &Value{Kind: Sym, Name: name} }

// NewTemp returns the numbered temporary V#n.
func NewTemp(n int) *Value { return &Value{Kind: Temp, Name: strconv.Itoa(n)} }

// NewStr returns a string constant value.
func NewStr(s string) *Value { return &Value{Kind: Str, Name: s} }

// NewExpr returns the symbolic application op(args...). Constant folding for
// binary integer operators is applied when possible.
func NewExpr(op string, args ...*Value) *Value {
	if v, ok := fold(op, args); ok {
		return v
	}
	return &Value{Kind: Expr, Op: op, Args: args}
}

func fold(op string, args []*Value) (*Value, bool) {
	if len(args) == 2 && args[0] != nil && args[1] != nil &&
		args[0].Kind == Int && args[1].Kind == Int {
		l, r := args[0].N, args[1].N
		switch op {
		case "+":
			return NewInt(l + r), true
		case "-":
			return NewInt(l - r), true
		case "*":
			return NewInt(l * r), true
		case "/":
			if r != 0 {
				return NewInt(l / r), true
			}
		case "%":
			if r != 0 {
				return NewInt(l % r), true
			}
		case "<<":
			if r >= 0 && r < 64 {
				return NewInt(l << uint(r)), true
			}
		case ">>":
			if r >= 0 && r < 64 {
				return NewInt(l >> uint(r)), true
			}
		case "&":
			return NewInt(l & r), true
		case "|":
			return NewInt(l | r), true
		case "^":
			return NewInt(l ^ r), true
		case "==":
			return boolInt(l == r), true
		case "!=":
			return boolInt(l != r), true
		case "<":
			return boolInt(l < r), true
		case "<=":
			return boolInt(l <= r), true
		case ">":
			return boolInt(l > r), true
		case ">=":
			return boolInt(l >= r), true
		case "&&":
			return boolInt(l != 0 && r != 0), true
		case "||":
			return boolInt(l != 0 || r != 0), true
		}
	}
	if len(args) == 1 && args[0] != nil && args[0].Kind == Int {
		switch op {
		case "-":
			return NewInt(-args[0].N), true
		case "~":
			return NewInt(^args[0].N), true
		case "!":
			return boolInt(args[0].N == 0), true
		}
	}
	return nil, false
}

func boolInt(b bool) *Value {
	if b {
		return NewInt(1)
	}
	return NewInt(0)
}

// String renders the value in Table-5 notation.
func (v *Value) String() string {
	var buf [64]byte
	return string(v.appendTo(buf[:0]))
}

// appendTo appends the Table-5 rendering of v to b.
func (v *Value) appendTo(b []byte) []byte {
	if v == nil {
		return append(b, "S#unknown"...)
	}
	switch v.Kind {
	case Int:
		b = append(b, "(I#"...)
		b = strconv.AppendInt(b, v.N, 10)
		return append(b, ')')
	case Sym:
		b = append(b, "(S#"...)
		b = append(b, v.Name...)
		return append(b, ')')
	case Temp:
		b = append(b, "(V#"...)
		b = append(b, v.Name...)
		return append(b, ')')
	case Str:
		b = append(b, "(I#"...)
		b = strconv.AppendQuote(b, v.Name)
		return append(b, ')')
	case Expr:
		infix := isInfix(v.Op)
		switch {
		case infix && len(v.Args) == 2:
			b = append(b, '(')
			b = v.Args[0].appendTo(b)
			b = append(b, ' ')
			b = append(b, v.Op...)
			b = append(b, ' ')
			b = v.Args[1].appendTo(b)
			return append(b, ')')
		case infix && len(v.Args) == 1:
			b = append(b, '(')
			b = append(b, v.Op...)
			b = v.Args[0].appendTo(b)
			return append(b, ')')
		}
		b = append(b, "(E#"...)
		b = append(b, v.Op...)
		b = append(b, '(')
		for i, a := range v.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = a.appendTo(b)
		}
		return append(b, "))"...)
	}
	return append(b, '?')
}

func isInfix(op string) bool {
	switch op {
	case "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
		"==", "!=", "<", "<=", ">", ">=", "&&", "||", "!", "~",
		".", "->", "[]":
		return true
	}
	return false
}

// Pure reports whether op at the given arity is one of the pure operators
// of the symbolic domain: an application whose value is determined by its
// rendered operands. Call results, memory reads (deref, member access,
// indexing) and address-taking are not pure — two occurrences that render
// identically may hold different values at different program points.
func Pure(op string, arity int) bool {
	switch arity {
	case 1:
		switch op {
		case "+", "-", "~", "!":
			return true
		}
	case 2:
		switch op {
		case "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
			"==", "!=", "<", "<=", ">", ">=", "&&", "||":
			return true
		}
	case 3:
		return op == "?:"
	}
	return false
}

// Stable reports whether v denotes a value that is fixed along one
// execution path: a term built only from concrete integers, free symbols
// (which are bound once and never mutate — reassignment rebinds the
// environment to a new term instead), and pure operators. Temporaries (V#),
// strings, call results and memory reads are not stable: constraint layers
// must never accumulate facts about them, because two occurrences with the
// same rendering may denote different runtime values.
func (v *Value) Stable() bool {
	if v == nil {
		return false
	}
	switch v.Kind {
	case Int, Sym:
		return true
	case Expr:
		if !Pure(v.Op, len(v.Args)) {
			return false
		}
		for _, a := range v.Args {
			if !a.Stable() {
				return false
			}
		}
		return true
	}
	return false
}

// Equal reports structural equality.
func Equal(a, b *Value) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.N != b.N || a.Name != b.Name || a.Op != b.Op ||
		len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !Equal(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

// ConcreteInt reports the value's integer if it is concrete.
func (v *Value) ConcreteInt() (int64, bool) {
	if v != nil && v.Kind == Int {
		return v.N, true
	}
	return 0, false
}

// Symbols collects the free symbol names appearing in v, sorted.
func (v *Value) Symbols() []string {
	set := map[string]bool{}
	var rec func(*Value)
	rec = func(x *Value) {
		if x == nil {
			return
		}
		if x.Kind == Sym {
			set[x.Name] = true
		}
		for _, a := range x.Args {
			rec(a)
		}
	}
	rec(v)
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Env is a symbolic environment: variable (or field path) → value, plus the
// disequalities learned from refuted branches (x != K).
//
// An Env is one mutable state that a depth-first walk backtracks over: every
// mutation first records the name's prior binding and disequality set on an
// undo trail, and Undo rolls the trail back to a Mark. Disequality sets are
// copied on write, so a set reachable from the trail is never mutated.
type Env struct {
	m     map[string]*Value
	ne    map[string]map[int64]bool
	trail []binding
	// fields counts, per root identifier, the bound field paths rooted at
	// it, so DeleteFields skips its scan when there are none.
	fields map[string]int
}

// binding is one undo-trail entry: a name's state before one mutation.
type binding struct {
	name  string
	v     *Value
	bound bool
	ne    map[int64]bool // nil: no disequalities recorded
}

// Mark is a point on an Env's undo trail.
type Mark int

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{m: map[string]*Value{}, ne: map[string]map[int64]bool{}, fields: map[string]int{}}
}

// Mark returns the current point on the undo trail.
func (e *Env) Mark() Mark { return Mark(len(e.trail)) }

// Undo restores the environment to its state at m, discarding every
// mutation made since. Marks must be undone in LIFO order.
func (e *Env) Undo(m Mark) {
	for i := len(e.trail) - 1; i >= int(m); i-- {
		b := e.trail[i]
		if b.bound {
			e.bind(b.name, b.v)
		} else {
			e.unbind(b.name)
		}
		if b.ne != nil {
			e.ne[b.name] = b.ne
		} else {
			delete(e.ne, b.name)
		}
	}
	clear(e.trail[m:])
	e.trail = e.trail[:m]
}

// save records name's current state on the undo trail.
func (e *Env) save(name string) {
	v, bound := e.m[name]
	e.trail = append(e.trail, binding{name: name, v: v, bound: bound, ne: e.ne[name]})
}

// bind sets name's binding, keeping the field-path counts.
func (e *Env) bind(name string, v *Value) {
	if _, ok := e.m[name]; !ok {
		if root, ok := fieldRoot(name); ok {
			e.fields[root]++
		}
	}
	e.m[name] = v
}

// unbind removes name's binding, keeping the field-path counts.
func (e *Env) unbind(name string) {
	if _, ok := e.m[name]; ok {
		if root, ok := fieldRoot(name); ok {
			e.fields[root]--
		}
		delete(e.m, name)
	}
}

// fieldRoot splits a field path at its first "->" or ".": "q->next->len"
// and "q.f" are rooted at "q". ok is false for names that are not field
// paths.
func fieldRoot(name string) (root string, ok bool) {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' || name[i] == '-' && i+1 < len(name) && name[i+1] == '>' {
			return name[:i], true
		}
	}
	return "", false
}

// Get returns the binding for name, or nil.
func (e *Env) Get(name string) *Value { return e.m[name] }

// Set binds name to v; any disequalities for name are superseded.
func (e *Env) Set(name string, v *Value) {
	e.save(name)
	e.bind(name, v)
	delete(e.ne, name)
}

// Delete removes a binding.
func (e *Env) Delete(name string) {
	e.save(name)
	e.unbind(name)
	delete(e.ne, name)
}

// DeleteFields removes every field-path binding rooted at the identifier
// name ("name->f", "name.f"): a write through the whole variable
// invalidates them.
func (e *Env) DeleteFields(name string) {
	if e.fields[name] == 0 {
		return
	}
	for n := range e.m {
		if root, ok := fieldRoot(n); ok && root == name {
			e.Delete(n)
		}
	}
}

// Exclude records that name is known not to equal val (learned from the
// refuted edge of an equality branch).
func (e *Env) Exclude(name string, val int64) {
	old := e.ne[name]
	if old[val] {
		return
	}
	e.save(name)
	set := make(map[int64]bool, len(old)+1)
	for n := range old {
		set[n] = true
	}
	set[val] = true
	e.ne[name] = set
}

// Excluded reports whether name is known to differ from val.
func (e *Env) Excluded(name string, val int64) bool { return e.ne[name][val] }

// Names returns the bound names, sorted.
func (e *Env) Names() []string {
	out := make([]string, 0, len(e.m))
	for k := range e.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of bindings.
func (e *Env) Len() int { return len(e.m) }
