package main

// The forward dataflow walk shared by the units and taint rules.
//
// Both rules assign every expression an abstract value (a dimension, a
// taint state), keep one value per variable, and propagate in statement
// order through assignments, declarations, range loops, and calls. The
// walk over Go's statement kinds is the same for both and lives here; a
// rule supplies its value type and the hooks where values are produced,
// stored, and checked. Granularity is per object and flow-insensitive
// across branches: both arms of an if are walked in source order.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// flowRule is the rule-specific half of the walk. The zero V must be the
// rule's "nothing known" value (unknown dimension, clean).
type flowRule[V any] interface {
	// expr evaluates an expression, reporting the rule's findings in its
	// subexpressions along the way.
	expr(e ast.Expr) V
	// bind records or checks one assignment target receiving v. define is
	// true for := and var; at is the position of the statement, on whose
	// line a trailing directive may pin the target (token.NoPos for range
	// variables, which no directive annotates).
	bind(lhs ast.Expr, v V, define bool, at token.Pos)
	// opAssign handles x op= y.
	opAssign(s *ast.AssignStmt)
	// call crosses a call boundary: it evaluates the arguments against the
	// callee's directives and fills results (zero on entry, one slot per
	// value the context consumes, at least one).
	call(e *ast.CallExpr, results []V)
	// rangeVals derives the loop key and value from the value cv of the
	// ranged expression, whose type is container.
	rangeVals(container types.Type, cv V) (key, val V)
	// forCond sees the condition of a three-clause for statement.
	forCond(cond ast.Expr)
	// ret sees a return statement.
	ret(s *ast.ReturnStmt)
}

// flow walks function bodies on behalf of one rule.
type flow[V any] struct {
	l    *linter
	rule flowRule[V]
}

func (w *flow[V]) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.ExprStmt:
		w.rule.expr(s.X)
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.DeclStmt:
		w.declStmt(s)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.rule.expr(s.Cond)
		w.stmt(s.Body)
		w.stmt(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		if s.Cond != nil {
			w.rule.forCond(s.Cond)
		}
		w.stmt(s.Post)
		w.stmt(s.Body)
	case *ast.RangeStmt:
		key, val := w.rule.rangeVals(w.l.info.Types[s.X].Type, w.rule.expr(s.X))
		if s.Key != nil {
			w.rule.bind(s.Key, key, s.Tok == token.DEFINE, token.NoPos)
		}
		if s.Value != nil {
			w.rule.bind(s.Value, val, s.Tok == token.DEFINE, token.NoPos)
		}
		w.stmt(s.Body)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		if s.Tag != nil {
			w.rule.expr(s.Tag)
		}
		w.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.rule.expr(e)
		}
		w.stmts(s.Body)
	case *ast.SelectStmt:
		w.stmt(s.Body)
	case *ast.CommClause:
		w.stmt(s.Comm)
		w.stmts(s.Body)
	case *ast.ReturnStmt:
		w.rule.ret(s)
	case *ast.IncDecStmt:
		w.rule.expr(s.X)
	case *ast.SendStmt:
		w.rule.expr(s.Chan)
		w.rule.expr(s.Value)
	case *ast.GoStmt:
		w.rule.expr(s.Call)
	case *ast.DeferStmt:
		w.rule.expr(s.Call)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

func (w *flow[V]) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

// assign handles = and := (values evaluated left to right, then bound)
// and hands op= statements to the rule.
func (w *flow[V]) assign(s *ast.AssignStmt) {
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		w.rule.opAssign(s)
		return
	}
	w.bindAll(s.Lhs, s.Rhs, s.Tok == token.DEFINE, s.Pos())
}

// declStmt handles `var x T = v` declarations.
func (w *flow[V]) declStmt(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		if vs, ok := spec.(*ast.ValueSpec); ok {
			lhs := make([]ast.Expr, len(vs.Names))
			for i, name := range vs.Names {
				lhs[i] = name
			}
			w.bindAll(lhs, vs.Values, true, vs.Pos())
		}
	}
}

// bindAll evaluates the right-hand sides and binds each target; targets
// without a value (var x T, short tuples) receive the zero V. A single
// multi-value right-hand side is a call, whose results the rule fills,
// or a comma-ok form: the value, then a bool that carries nothing.
func (w *flow[V]) bindAll(lhs, rhs []ast.Expr, define bool, at token.Pos) {
	vals := make([]V, len(lhs))
	if len(rhs) == 1 && len(lhs) > 1 {
		if call, ok := unparen(rhs[0]).(*ast.CallExpr); ok {
			w.rule.call(call, vals)
		} else {
			vals[0] = w.rule.expr(rhs[0])
		}
	} else {
		for i, r := range rhs {
			if v := w.rule.expr(r); i < len(vals) {
				vals[i] = v
			}
		}
	}
	for i, l := range lhs {
		w.rule.bind(l, vals[i], define, at)
	}
}
