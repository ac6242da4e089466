// Package paths enumerates execution paths through function CFGs and
// extracts, for each path, the four components the paper's symbolic
// extraction produces (Table 5): the function signature, the ordered branch
// conditions, the state updates (assignments and callee effects), and the
// path output. Loops are bounded and callees are summarized/inlined to a
// configurable depth, "to prevent the path explosion problem".
package paths

import (
	"fmt"
	"strings"
	"unsafe"
)

// UpdateKind classifies a state update.
type UpdateKind int

// State update kinds.
const (
	// Assign is a plain assignment in the analyzed function.
	Assign UpdateKind = iota
	// Decl is a local declaration with (or without) an initializer.
	Decl
	// CallEffect is an update performed inside an inlined/summarized callee.
	CallEffect
	// IncDec is ++/--.
	IncDec
)

// String names the update kind.
func (k UpdateKind) String() string {
	switch k {
	case Assign:
		return "assign"
	case Decl:
		return "decl"
	case CallEffect:
		return "call-effect"
	case IncDec:
		return "incdec"
	}
	return fmt.Sprintf("UpdateKind(%d)", int(k))
}

// Condition is one branch decision along a path.
type Condition struct {
	// Expr is the branch condition source text.
	Expr string
	// Sym is its symbolic rendering under the path's environment.
	Sym string
	// Outcome is "true", "false", a case label, or "default".
	Outcome string
	// Vars lists identifier names referenced by the condition.
	Vars []string
	// Fields lists canonical member paths referenced ("rxq->rps_map").
	Fields []string
	// Line is the source line of the condition.
	Line int
	// FromCallee names the summarized callee the condition came from (empty
	// when the condition is in the analyzed function itself).
	FromCallee string
}

// StateUpdate is one write to a variable or field along a path.
type StateUpdate struct {
	// Target is the canonical lvalue ("gfp_mask", "page->private").
	Target string
	// Root is the base identifier of Target.
	Root string
	// Value is the symbolic RHS in Table-5 notation.
	Value string
	// Kind classifies the update.
	Kind UpdateKind
	// Line is the source line.
	Line int
	// Callee names the summarized function for CallEffect updates.
	Callee string
}

// CallRecord is one function call along a path.
type CallRecord struct {
	// Name is the callee.
	Name string
	// Args are the rendered argument expressions.
	Args []string
	// Line is the call site line.
	Line int
	// ResultUsed reports whether the call result flows anywhere (assigned,
	// compared, returned or used as an argument) rather than being discarded.
	ResultUsed bool
	// ResultChecked reports whether the call result is tested by a branch
	// condition later on the same path.
	ResultChecked bool
	// Inlined reports whether the callee's summary was applied.
	Inlined bool
	// AssignedTo is the lvalue receiving the result, when directly assigned.
	AssignedTo string
	// FromCallee names the summarized function this nested call was lifted
	// out of; empty for calls made directly by the analyzed function. The
	// callee, not the caller, is responsible for checking lifted calls.
	FromCallee string
}

// Output is the value a path returns.
type Output struct {
	// Expr is the return expression source text ("" for bare return).
	Expr string
	// Sym is the symbolic value returned.
	Sym string
	// Line is the line of the return statement.
	Line int
	// Void marks a bare `return;` or falling off the end.
	Void bool
}

// ExecPath is one extracted execution path.
type ExecPath struct {
	// Fn is the analyzed function name.
	Fn string
	// Signature renders the function header ("f(gfp_mask, order, ...)").
	Signature string
	// Index numbers the path within its function (0-based, deterministic).
	Index int
	// Blocks records the CFG block IDs traversed.
	Blocks []int
	// Conds are the branch decisions, in execution order.
	Conds []Condition
	// States are the state updates, in execution order.
	States []StateUpdate
	// Calls are the calls made, in execution order.
	Calls []CallRecord
	// Out is the path output; nil only when extraction was truncated.
	Out *Output
}

// String renders the path compactly (one Table-5-style section per line).
func (p *ExecPath) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "path %d of %s\n", p.Index, p.Signature)
	for _, c := range p.Conds {
		fmt.Fprintf(&sb, "  cond  L%-4d %s = %s  [%s]\n", c.Line, c.Expr, c.Sym, c.Outcome)
	}
	for _, s := range p.States {
		callee := ""
		if s.Callee != "" {
			callee = " via " + s.Callee
		}
		fmt.Fprintf(&sb, "  state L%-4d %s = %s (%s%s)\n", s.Line, s.Target, s.Value, s.Kind, callee)
	}
	for _, c := range p.Calls {
		fmt.Fprintf(&sb, "  call  L%-4d %s(%s)\n", c.Line, c.Name, strings.Join(c.Args, ", "))
	}
	if p.Out != nil {
		if p.Out.Void {
			fmt.Fprintf(&sb, "  out   void\n")
		} else {
			fmt.Fprintf(&sb, "  out   L%-4d %s = %s\n", p.Out.Line, p.Out.Expr, p.Out.Sym)
		}
	}
	return sb.String()
}

// WritesTo reports whether any update on the path targets the variable (by
// canonical target or by root identifier).
func (p *ExecPath) WritesTo(name string) (StateUpdate, bool) {
	for _, s := range p.States {
		if s.Target == name || s.Root == name {
			return s, true
		}
	}
	return StateUpdate{}, false
}

// TestsVar reports whether any condition on the path references name, either
// as a plain identifier or as a component of a member path ("c->free_space"
// tests "free_space" as well as "c").
func (p *ExecPath) TestsVar(name string) bool {
	for _, c := range p.Conds {
		for _, v := range c.Vars {
			if v == name {
				return true
			}
		}
		for _, f := range c.Fields {
			if f == name || containsIdentWord(f, name) {
				return true
			}
		}
	}
	return false
}

// containsIdentWord reports whether s contains name delimited by non-ident
// characters (so "map->len" contains "len" but "maple" does not).
func containsIdentWord(s, name string) bool {
	idx := 0
	for {
		i := strings.Index(s[idx:], name)
		if i < 0 {
			return false
		}
		i += idx
		beforeOK := i == 0 || !isIdentByte(s[i-1])
		j := i + len(name)
		afterOK := j >= len(s) || !isIdentByte(s[j])
		if beforeOK && afterOK {
			return true
		}
		idx = i + len(name)
		if idx >= len(s) {
			return false
		}
	}
}

func isIdentByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// CallNamed returns the first call to name on the path.
func (p *ExecPath) CallNamed(name string) (CallRecord, bool) {
	for _, c := range p.Calls {
		if c.Name == name {
			return c, true
		}
	}
	return CallRecord{}, false
}

// FuncPaths is the extraction result for one function.
type FuncPaths struct {
	Fn        string
	Signature string
	Paths     []*ExecPath
	// Truncated reports that MaxPaths was hit and the enumeration stopped.
	Truncated bool
	// Pruned counts path continuations the feasibility layer discarded
	// because their accumulated branch conditions were contradictory
	// (Config.Precision balanced/strict; always 0 under fast). Zero values
	// are omitted so fast-tier serializations are byte-identical to builds
	// that predate the field.
	Pruned int `json:"Pruned,omitempty"`
}

// Size estimates the memory a FuncPaths holds: every struct, slice backing
// array and string byte reachable from it, shared strings counted once per
// reference. It lives next to the types so a new field gets counted; a
// cache that keeps records as live values charges this against its byte
// budget.
func (fp *FuncPaths) Size() int64 {
	n := int64(unsafe.Sizeof(*fp)) + int64(cap(fp.Paths))*int64(unsafe.Sizeof(fp))
	for _, p := range fp.Paths {
		n += int64(unsafe.Sizeof(*p)) +
			int64(cap(p.Blocks))*int64(unsafe.Sizeof(0)) +
			int64(cap(p.Conds))*int64(unsafe.Sizeof(Condition{})) +
			int64(cap(p.States))*int64(unsafe.Sizeof(StateUpdate{})) +
			int64(cap(p.Calls))*int64(unsafe.Sizeof(CallRecord{}))
		for _, c := range p.Conds {
			n += int64(cap(c.Vars)+cap(c.Fields)) * int64(unsafe.Sizeof(""))
		}
		for _, c := range p.Calls {
			n += int64(cap(c.Args)) * int64(unsafe.Sizeof(""))
		}
		if p.Out != nil {
			n += int64(unsafe.Sizeof(*p.Out))
		}
	}
	fp.eachString(func(s *string) { n += int64(len(*s)) })
	return n
}

// Detach replaces every string of fp that points into src with a copy of
// its own, one copy per distinct string. The extractor's names are slices
// of the text it parsed, so a FuncPaths kept past its analysis (a live memo
// record) would otherwise keep that whole text alive. It writes fp in
// place: call it before fp is shared, while nothing else reads it.
func (fp *FuncPaths) Detach(src string) {
	if src == "" {
		return
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	var copies map[string]string
	fp.eachString(func(s *string) {
		p := uintptr(unsafe.Pointer(unsafe.StringData(*s)))
		if p < lo || p >= hi {
			return
		}
		if *s == "" {
			*s = ""
			return
		}
		c, ok := copies[*s]
		if !ok {
			if copies == nil {
				copies = map[string]string{}
			}
			c = strings.Clone(*s)
			copies[c] = c
		}
		*s = c
	})
}

// eachString calls f with a pointer to every string fp holds: each string
// field and each element of a string slice. A new string field must be
// visited here, so Size counts it and Detach copies it.
func (fp *FuncPaths) eachString(f func(*string)) {
	f(&fp.Fn)
	f(&fp.Signature)
	for _, p := range fp.Paths {
		f(&p.Fn)
		f(&p.Signature)
		for i := range p.Conds {
			c := &p.Conds[i]
			f(&c.Expr)
			f(&c.Sym)
			f(&c.Outcome)
			f(&c.FromCallee)
			for j := range c.Vars {
				f(&c.Vars[j])
			}
			for j := range c.Fields {
				f(&c.Fields[j])
			}
		}
		for i := range p.States {
			s := &p.States[i]
			f(&s.Target)
			f(&s.Root)
			f(&s.Value)
			f(&s.Callee)
		}
		for i := range p.Calls {
			c := &p.Calls[i]
			f(&c.Name)
			f(&c.AssignedTo)
			f(&c.FromCallee)
			for j := range c.Args {
				f(&c.Args[j])
			}
		}
		if p.Out != nil {
			f(&p.Out.Expr)
			f(&p.Out.Sym)
		}
	}
}
