// Package difftool compares a fast path against its slow path. The paper's
// study methodology (§3.1) "built a tool with the Clang front-end to compare
// the code difference between a fast path and slow path on the same
// functionality to narrow down our focus on specific data structures,
// variables, and functions"; Compare is that tool: it reports the variables,
// fields, conditions, calls and return constants present in one path but not
// the other.
package difftool

import (
	"fmt"
	"sort"
	"strings"

	"pallas/internal/cast"
	"pallas/internal/paths"
)

// Profile summarizes the semantically relevant surface of one function.
type Profile struct {
	Func       string
	Vars       []string // identifiers referenced
	Fields     []string // member paths referenced
	Conditions []string // branch condition texts
	Calls      []string // callees
	Returns    []string // return expression texts
	ReturnInts []int64  // concrete return constants
}

// BuildProfile computes the profile of fn within tu.
func BuildProfile(tu *cast.TranslationUnit, fn *cast.FuncDecl) *Profile {
	p := &Profile{Func: fn.Name}
	p.Vars = cast.Idents(fn.Body)
	p.Calls = cast.Calls(fn.Body)
	fieldSet := map[string]bool{}
	cast.Walk(fn.Body, func(n cast.Node) bool {
		switch x := n.(type) {
		case *cast.MemberExpr:
			s := cast.ExprString(x)
			if !fieldSet[s] {
				fieldSet[s] = true
				p.Fields = append(p.Fields, s)
			}
		case *cast.IfStmt:
			p.Conditions = append(p.Conditions, cast.ExprString(x.Cond))
		case *cast.WhileStmt:
			p.Conditions = append(p.Conditions, cast.ExprString(x.Cond))
		case *cast.DoWhileStmt:
			p.Conditions = append(p.Conditions, cast.ExprString(x.Cond))
		case *cast.SwitchStmt:
			p.Conditions = append(p.Conditions, cast.ExprString(x.Tag))
		case *cast.ReturnStmt:
			if x.X != nil {
				p.Returns = append(p.Returns, cast.ExprString(x.X))
			}
		}
		return true
	})
	p.ReturnInts = paths.ReturnConstants(tu, fn)
	sort.Strings(p.Vars)
	sort.Strings(p.Fields)
	sort.Strings(p.Calls)
	return p
}

// Diff is the comparison between a fast path and its slow path.
type Diff struct {
	Fast, Slow *Profile
	// *Only hold what appears in exactly one of the two paths.
	VarsFastOnly, VarsSlowOnly     []string
	FieldsFastOnly, FieldsSlowOnly []string
	CallsFastOnly, CallsSlowOnly   []string
	CondsFastOnly, CondsSlowOnly   []string
	// ReturnsDiffer reports disagreement of concrete return sets (a rule-3.2
	// candidate before any spec is written).
	ReturnsDiffer bool
}

// Compare diffs the fast and slow functions.
func Compare(tu *cast.TranslationUnit, fast, slow *cast.FuncDecl) *Diff {
	fp := BuildProfile(tu, fast)
	sp := BuildProfile(tu, slow)
	d := &Diff{Fast: fp, Slow: sp}
	d.VarsFastOnly, d.VarsSlowOnly = diffSets(fp.Vars, sp.Vars)
	d.FieldsFastOnly, d.FieldsSlowOnly = diffSets(fp.Fields, sp.Fields)
	d.CallsFastOnly, d.CallsSlowOnly = diffSets(fp.Calls, sp.Calls)
	d.CondsFastOnly, d.CondsSlowOnly = diffSets(fp.Conditions, sp.Conditions)
	d.ReturnsDiffer = !sameInts(fp.ReturnInts, sp.ReturnInts)
	return d
}

func diffSets(a, b []string) (aOnly, bOnly []string) {
	inA := map[string]bool{}
	inB := map[string]bool{}
	for _, s := range a {
		inA[s] = true
	}
	for _, s := range b {
		inB[s] = true
	}
	for _, s := range a {
		if !inB[s] {
			aOnly = append(aOnly, s)
		}
	}
	for _, s := range b {
		if !inA[s] {
			bOnly = append(bOnly, s)
		}
	}
	sort.Strings(aOnly)
	sort.Strings(bOnly)
	return dedupSorted(aOnly), dedupSorted(bOnly)
}

func dedupSorted(in []string) []string {
	var out []string
	for i, s := range in {
		if i == 0 || in[i-1] != s {
			out = append(out, s)
		}
	}
	return out
}

func sameInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders the diff as a readable report.
func (d *Diff) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "diff %s (fast) vs %s (slow)\n", d.Fast.Func, d.Slow.Func)
	section := func(name string, fastOnly, slowOnly []string) {
		if len(fastOnly) == 0 && len(slowOnly) == 0 {
			return
		}
		fmt.Fprintf(&sb, "  %s:\n", name)
		for _, s := range fastOnly {
			fmt.Fprintf(&sb, "    + fast only: %s\n", s)
		}
		for _, s := range slowOnly {
			fmt.Fprintf(&sb, "    - slow only: %s\n", s)
		}
	}
	section("variables", d.VarsFastOnly, d.VarsSlowOnly)
	section("fields", d.FieldsFastOnly, d.FieldsSlowOnly)
	section("calls", d.CallsFastOnly, d.CallsSlowOnly)
	section("conditions", d.CondsFastOnly, d.CondsSlowOnly)
	if d.ReturnsDiffer {
		fmt.Fprintf(&sb, "  returns: fast %v vs slow %v\n", d.Fast.ReturnInts, d.Slow.ReturnInts)
	}
	return sb.String()
}
