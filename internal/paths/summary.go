package paths

import (
	"sort"
	"sync"

	"pallas/internal/cast"
	"pallas/internal/ctok"
)

// Summary captures the externally visible behaviour of a callee so call
// sites can replay it without multiplying path counts — the extractor's
// answer to "inlines a limited number of callee functions to prevent the
// path explosion problem".
type Summary struct {
	Name       string
	ParamNames []string
	// Globals are the global variables the function touches.
	Globals map[string]bool
	// Effects are writes whose target roots are parameters or globals.
	Effects []SummaryEffect
	// Conds are branch conditions over parameters or globals.
	Conds []SummaryCond
	// Calls are the names of functions invoked transitively (one level).
	Calls []string
	// Returns are the rendered return expressions.
	Returns []string
}

// SummaryEffect is one externally visible write.
type SummaryEffect struct {
	Target string // canonical lvalue in callee terms ("cmd->state", "total_pages")
	Value  string // rendered RHS
	Line   int
}

// SummaryCond is one externally visible condition test.
type SummaryCond struct {
	Target string // the parameter/global tested
	Expr   string // condition source text
	Line   int
}

// sumEntry is one slot of the extractor's summary cache. The once makes the
// build synchronous for every concurrent caller of the same name: nobody can
// observe an in-progress build, so whether a summary is applied at a call
// site depends only on the translation unit, never on worker scheduling.
// (buildSummary never calls summary, so running it inside the once cannot
// deadlock on a recursive lookup.)
type sumEntry struct {
	once sync.Once
	s    *Summary
}

// summary returns (and caches) the summary for fn, or nil when the function
// is unknown. Safe for concurrent use; distinct names build in parallel, one
// build per name.
func (ex *Extractor) summary(name string) *Summary {
	ex.mu.Lock()
	e, ok := ex.sums[name]
	if !ok {
		e = &sumEntry{}
		ex.sums[name] = e
	}
	ex.mu.Unlock()
	e.once.Do(func() {
		if fn := ex.tu.Func(name); fn != nil {
			e.s = ex.buildSummary(fn)
		}
	})
	return e.s
}

// BuildSummary computes a fresh summary for fn (exported for tests and the
// diff tool).
func (ex *Extractor) BuildSummary(fn *cast.FuncDecl) *Summary {
	return ex.buildSummary(fn)
}

func (ex *Extractor) buildSummary(fn *cast.FuncDecl) *Summary {
	s := &Summary{Name: fn.Name, Globals: map[string]bool{}}
	params := map[string]bool{}
	for _, p := range fn.Params {
		s.ParamNames = append(s.ParamNames, p.Name)
		params[p.Name] = true
	}
	globals := map[string]bool{}
	for _, g := range ex.tu.Globals() {
		globals[g.Name] = true
	}
	locals := map[string]bool{}
	cast.Walk(fn.Body, func(n cast.Node) bool {
		if d, ok := n.(*cast.DeclStmt); ok {
			locals[d.Name] = true
		}
		return true
	})
	external := func(root string) bool {
		if root == "" || locals[root] {
			return false
		}
		return params[root] || globals[root]
	}

	cast.Walk(fn.Body, func(n cast.Node) bool {
		switch x := n.(type) {
		case *cast.AssignExpr:
			root := cast.RootIdent(x.L)
			// Direct global write, or a write through a pointer parameter
			// (param->field); plain reassignment of a by-value parameter is
			// not externally visible, so require a member/index/deref form
			// unless the root is a global.
			isMemberish := false
			switch x.L.(type) {
			case *cast.MemberExpr, *cast.IndexExpr:
				isMemberish = true
			case *cast.UnaryExpr:
				isMemberish = true // *p = ...
			}
			if external(root) && (globals[root] || isMemberish) {
				s.Effects = append(s.Effects, SummaryEffect{
					Target: cast.ExprString(x.L),
					Value:  cast.ExprString(x.R),
					Line:   x.P.Line,
				})
			}
		case *cast.IfStmt:
			recordCond(s, x.Cond, external)
		case *cast.WhileStmt:
			recordCond(s, x.Cond, external)
		case *cast.DoWhileStmt:
			recordCond(s, x.Cond, external)
		case *cast.SwitchStmt:
			recordCond(s, x.Tag, external)
		case *cast.CallExpr:
			if id, ok := x.Fun.(*cast.IdentExpr); ok {
				s.Calls = append(s.Calls, id.Name)
			}
		case *cast.ReturnStmt:
			if x.X != nil {
				s.Returns = append(s.Returns, cast.ExprString(x.X))
			} else {
				s.Returns = append(s.Returns, "")
			}
		}
		return true
	})
	sort.Strings(s.Calls)
	s.Calls = dedup(s.Calls)
	for g := range globals {
		if cast.UsesIdent(fn.Body, g) {
			s.Globals[g] = true
		}
	}
	return s
}

func recordCond(s *Summary, cond cast.Expr, external func(string) bool) {
	if cond == nil {
		return
	}
	for _, v := range cast.Idents(cond) {
		if external(v) {
			s.Conds = append(s.Conds, SummaryCond{Target: v, Expr: cast.ExprString(cond), Line: cond.Pos().Line})
		}
	}
}

func dedup(in []string) []string {
	var out []string
	for i, s := range in {
		if i == 0 || in[i-1] != s {
			out = append(out, s)
		}
	}
	return out
}

// ReturnConstants extracts the concrete integer return values of fn (used by
// the path-output checker for cross-checking fast and slow returns).
func ReturnConstants(tu *cast.TranslationUnit, fn *cast.FuncDecl) []int64 {
	var out []int64
	seen := map[int64]bool{}
	cast.Walk(fn.Body, func(n cast.Node) bool {
		r, ok := n.(*cast.ReturnStmt)
		if !ok || r.X == nil {
			return true
		}
		if v, ok := constValue(tu, r.X); ok && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func constValue(tu *cast.TranslationUnit, e cast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *cast.IntExpr:
		return x.Value, true
	case *cast.IdentExpr:
		return tu.EnumValue(x.Name)
	case *cast.UnaryExpr:
		if v, ok := constValue(tu, x.X); ok {
			switch x.Op {
			case ctok.Minus:
				return -v, true
			case ctok.Tilde:
				return ^v, true
			case ctok.Not:
				if v == 0 {
					return 1, true
				}
				return 0, true
			case ctok.Plus:
				return v, true
			}
		}
	case *cast.CastExpr:
		return constValue(tu, x.X)
	}
	return 0, false
}
