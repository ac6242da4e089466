// Package infer implements the automated extraction of semantic information
// that the paper leaves as future work ("We wish to leave the automated
// approach for extracting semantic information as the future work", §4).
//
// Given a fast path and its slow path, Infer proposes spec directives by
// treating the slow path as the reference implementation:
//
//   - parameters the slow path never writes are immutable candidates;
//   - state-looking fields the slow path tests in flow control are fault
//     states.
//
// A heuristic belongs here only while it finds a seeded bug that the pair
// directive alone misses: eval.RunInfer scores each one against the corpus
// (EXPERIMENTS.md, "Spec inference, scored"). Suggestions are ranked by
// confidence; a developer reviews them and keeps the ones that encode real
// semantics.
package infer

import (
	"fmt"
	"sort"
	"strings"

	"pallas/internal/cast"
)

// Suggestion is one proposed spec directive.
type Suggestion struct {
	// Directive is ready to paste into a spec ("immutable gfp_mask").
	Directive string
	// Reason explains the evidence.
	Reason string
	// Confidence in (0, 1]; higher is stronger evidence.
	Confidence float64
}

// Infer proposes spec directives for the fast/slow pair within tu.
func Infer(tu *cast.TranslationUnit, fast, slow string) ([]Suggestion, error) {
	ff := tu.Func(fast)
	sf := tu.Func(slow)
	if ff == nil || sf == nil {
		return nil, fmt.Errorf("infer: function not found (fast=%v slow=%v)", ff != nil, sf != nil)
	}
	out := []Suggestion{{
		Directive:  fmt.Sprintf("pair %s %s", fast, slow),
		Reason:     "declared fast/slow pair",
		Confidence: 1,
	}}
	out = append(out, inferImmutables(sf, ff)...)
	out = append(out, inferFaults(sf)...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Directive < out[j].Directive
	})
	return out, nil
}

// writtenVars collects the root identifiers a function assigns to.
func writtenVars(fn *cast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	cast.Walk(fn.Body, func(n cast.Node) bool {
		switch x := n.(type) {
		case *cast.AssignExpr:
			if r := cast.RootIdent(x.L); r != "" {
				out[r] = true
			}
		case *cast.UnaryExpr:
			if x.Op.String() == "++" || x.Op.String() == "--" {
				if r := cast.RootIdent(x.X); r != "" {
					out[r] = true
				}
			}
		case *cast.PostfixExpr:
			if r := cast.RootIdent(x.X); r != "" {
				out[r] = true
			}
		}
		return true
	})
	return out
}

// inferImmutables proposes parameters shared by both paths that the slow
// path treats as read-only.
func inferImmutables(slow, fast *cast.FuncDecl) []Suggestion {
	slowWrites := writtenVars(slow)
	slowParams := map[string]bool{}
	for _, p := range slow.Params {
		slowParams[p.Name] = true
	}
	var out []Suggestion
	for _, p := range fast.Params {
		if p.Name == "" || !slowParams[p.Name] || slowWrites[p.Name] {
			continue
		}
		// Pointer parameters are usually the mutated object, not a mode
		// flag; scalars named like flags/masks/types are the strongest
		// immutable candidates.
		conf := 0.5
		if !p.Type.IsPointer() {
			conf = 0.7
		}
		if looksLikeModeName(p.Name) {
			conf = 0.9
		}
		out = append(out, Suggestion{
			Directive:  "immutable " + p.Name,
			Reason:     fmt.Sprintf("parameter %q is never written by the slow path", p.Name),
			Confidence: conf,
		})
	}
	return out
}

func looksLikeModeName(name string) bool {
	for _, hint := range []string{"flag", "mask", "type", "mode", "policy", "order"} {
		if strings.Contains(name, hint) {
			return true
		}
	}
	return false
}

// inferFaults proposes fault states: error/state-looking fields the slow
// path tests in flow control.
func inferFaults(slow *cast.FuncDecl) []Suggestion {
	var out []Suggestion
	seen := map[string]bool{}
	grab := func(cond cast.Expr) {
		cast.Walk(cond, func(n cast.Node) bool {
			if m, ok := n.(*cast.MemberExpr); ok && looksLikeFaultName(m.Field) && !seen[m.Field] {
				seen[m.Field] = true
				out = append(out, Suggestion{
					Directive:  "fault " + m.Field,
					Reason:     fmt.Sprintf("slow path tests fault-looking state %q in flow control", cast.ExprString(m)),
					Confidence: 0.6,
				})
			}
			return true
		})
	}
	cast.Walk(slow.Body, func(n cast.Node) bool {
		if ifs, ok := n.(*cast.IfStmt); ok {
			grab(ifs.Cond)
		}
		return true
	})
	return out
}

func looksLikeFaultName(name string) bool {
	for _, hint := range []string{"err", "fail", "fault", "state", "active", "dirty"} {
		if strings.Contains(name, hint) {
			return true
		}
	}
	return false
}
