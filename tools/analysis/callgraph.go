package analysis

// Cross-function facts. Most analyzers are strictly intra-function;
// metriclabel needs to know how often a function runs, which it reads
// off what calls it, transitively, across every loaded package. This
// file adds the minimal whole-program layer: a Program wrapping one
// load's units and a lazily-built static call graph over their declared
// functions.
//
// Identity note: the loader type-checks each unit independently, so a
// package that is both explicitly loaded and imported by another unit
// exists twice as distinct *types.Package universes (the unit's own
// check vs. the shared source importer). Object pointers therefore do
// not work as cross-unit function keys; the graph keys functions by
// their stable full name (types.Func.FullName — e.g.
// "(*cdt/internal/engine.Engine).Sweep"), which both universes agree
// on.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sync"
)

// Program is one load's worth of units plus lazily-computed
// whole-program facts. All passes of a Run share one Program.
type Program struct {
	Fset  *token.FileSet
	Units []*Unit

	cgOnce sync.Once
	cg     *CallGraph
}

// NewProgram wraps a loaded unit set.
func NewProgram(fset *token.FileSet, units []*Unit) *Program {
	return &Program{Fset: fset, Units: units}
}

// CallGraph returns the program's static call graph, built once on
// first use.
func (p *Program) CallGraph() *CallGraph {
	p.cgOnce.Do(func() { p.cg = buildCallGraph(p.Units) })
	return p.cg
}

// CallGraph is a static over-approximation-free call graph: edges exist
// only for calls the type checker resolves to a declared function or
// concrete method. Interface dispatch, function values, and calls into
// packages outside the load (the standard library) have no edges — the
// consumers that need those model them separately.
type CallGraph struct {
	// Nodes maps FuncID to the function's node. Only functions declared
	// in a loaded unit appear.
	Nodes map[string]*CallNode
}

// CallNode is one declared function or method and its resolved call
// sites.
type CallNode struct {
	// Unit is the unit declaring the function. When a function is
	// visible from several units (library files re-checked by a Test
	// unit), the Lib unit wins.
	Unit *Unit
	// Calls lists the body's resolved static call sites, in source
	// order. Calls made inside func literals are attributed to the
	// enclosing declaration.
	Calls []CallSite
}

// CallSite is one resolved call expression.
type CallSite struct {
	// Callee is the called function's FuncID. The callee has a node in
	// the graph only when it is declared in a loaded unit.
	Callee string
	// InLoop reports whether the call sits inside a for/range statement
	// of the enclosing function (at any nesting depth, including via a
	// func literal declared inside the loop).
	InLoop bool
}

// FuncID returns the stable cross-unit identity of fn: its full
// name, with generic instantiations folded onto their origin.
func FuncID(fn *types.Func) string {
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return fn.FullName()
}

// buildCallGraph walks every unit's declarations. Lib units are walked
// first so shared declarations resolve to their library unit.
func buildCallGraph(units []*Unit) *CallGraph {
	g := &CallGraph{Nodes: make(map[string]*CallNode)}
	ordered := make([]*Unit, 0, len(units))
	for _, u := range units {
		if u.Kind == Lib {
			ordered = append(ordered, u)
		}
	}
	for _, u := range units {
		if u.Kind != Lib {
			ordered = append(ordered, u)
		}
	}
	for _, u := range ordered {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				id := FuncID(obj)
				if _, seen := g.Nodes[id]; seen {
					continue
				}
				g.Nodes[id] = &CallNode{Unit: u, Calls: collectCalls(u.Info, fd.Body)}
			}
		}
	}
	return g
}

// collectCalls resolves the call expressions of one body, tracking loop
// depth so each site knows whether it executes per iteration.
func collectCalls(info *types.Info, body *ast.BlockStmt) []CallSite {
	var sites []CallSite
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.ForStmt:
				if m.Init != nil {
					walk(m.Init, inLoop)
				}
				if m.Cond != nil {
					walk(m.Cond, true)
				}
				if m.Post != nil {
					walk(m.Post, true)
				}
				walk(m.Body, true)
				return false
			case *ast.RangeStmt:
				walk(m.X, inLoop)
				walk(m.Body, true)
				return false
			case *ast.CallExpr:
				if fn := calleeOf(info, m); fn != nil {
					sites = append(sites, CallSite{Callee: FuncID(fn), InLoop: inLoop})
				}
				return true
			}
			return true
		})
	}
	walk(body, false)
	return sites
}

// calleeOf resolves a call's static target: a declared function, a
// concrete method through a selector, or nil for interface dispatch,
// function values, conversions, and builtins.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				// Interface methods have no body to follow; their
				// FullName would never match a declared node anyway, but
				// skipping them keeps edge lists honest.
				if !isInterfaceMethod(fn) {
					return fn
				}
			}
			return nil
		}
		// Package-qualified call (pkg.Fn).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}
