package pathdb

import (
	"fmt"
	"sort"
	"strings"

	"pallas/internal/paths"
)

// Query filters stored paths. Zero-valued fields match everything; set
// fields are conjunctive.
type Query struct {
	// Func restricts to one function ("" = all).
	Func string
	// TestsVar keeps paths whose conditions reference the variable.
	TestsVar string
	// WritesTo keeps paths that update the variable or one of its fields.
	WritesTo string
	// Calls keeps paths invoking the named function.
	Calls string
	// ReturnsExpr keeps paths whose output expression equals this text.
	ReturnsExpr string
	// MinConds keeps paths with at least this many branch decisions.
	MinConds int
}

// Hit is one query match.
type Hit struct {
	Func string
	Path *paths.ExecPath
}

// Select returns the paths matching q, ordered by (function, path index).
func (db *DB) Select(q Query) []Hit {
	var out []Hit
	fns := db.Funcs()
	for _, fn := range fns {
		if q.Func != "" && q.Func != fn {
			continue
		}
		for _, p := range db.Get(fn).Paths {
			if matches(p, q) {
				out = append(out, Hit{Func: fn, Path: p})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Func != out[j].Func {
			return out[i].Func < out[j].Func
		}
		return out[i].Path.Index < out[j].Path.Index
	})
	return out
}

func matches(p *paths.ExecPath, q Query) bool {
	if q.TestsVar != "" && !p.TestsVar(q.TestsVar) {
		return false
	}
	if q.WritesTo != "" {
		if _, ok := p.WritesTo(q.WritesTo); !ok {
			return false
		}
	}
	if q.Calls != "" {
		if _, ok := p.CallNamed(q.Calls); !ok {
			return false
		}
	}
	if q.ReturnsExpr != "" {
		if p.Out == nil || p.Out.Void || p.Out.Expr != q.ReturnsExpr {
			return false
		}
	}
	if q.MinConds > 0 && len(p.Conds) < q.MinConds {
		return false
	}
	return true
}

// Stats summarizes a database: per-function path counts and the global
// condition/state/call volume.
type Stats struct {
	Funcs        int
	Paths        int
	Conds        int
	States       int
	Calls        int
	MaxPathDepth int // longest condition chain on any path
	PerFunc      map[string]int
}

// ComputeStats tallies the database.
func (db *DB) ComputeStats() Stats {
	st := Stats{PerFunc: map[string]int{}}
	for fn, e := range db.entryMap() {
		st.Funcs++
		st.PerFunc[fn] = len(e.Paths)
		st.Paths += len(e.Paths)
		for _, p := range e.Paths {
			st.Conds += len(p.Conds)
			st.States += len(p.States)
			st.Calls += len(p.Calls)
			if len(p.Conds) > st.MaxPathDepth {
				st.MaxPathDepth = len(p.Conds)
			}
		}
	}
	return st
}

// String renders the stats in one line per function plus totals.
func (s Stats) String() string {
	var sb strings.Builder
	fns := make([]string, 0, len(s.PerFunc))
	for fn := range s.PerFunc {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		fmt.Fprintf(&sb, "%s: %d path(s)\n", fn, s.PerFunc[fn])
	}
	fmt.Fprintf(&sb, "total: %d paths, %d conditions, %d state updates, %d calls\n",
		s.Paths, s.Conds, s.States, s.Calls)
	return sb.String()
}
