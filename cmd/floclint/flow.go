package main

// The forward dataflow walk of the taint rule.
//
// Every expression gets a taint state, every variable keeps one, and the
// state propagates in statement order through assignments, declarations,
// range loops, and calls. This file is the walk over Go's statement
// kinds; taint.go holds the hooks where values are produced, stored, and
// checked. Granularity is per object and flow-insensitive across
// branches: both arms of an if are walked in source order.

import (
	"go/ast"
	"go/token"
)

func (c *taintChecker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		c.stmts(s.List)
	case *ast.ExprStmt:
		c.expr(s.X)
	case *ast.AssignStmt:
		c.assign(s)
	case *ast.DeclStmt:
		c.declStmt(s)
	case *ast.IfStmt:
		c.stmt(s.Init)
		c.expr(s.Cond)
		c.stmt(s.Body)
		c.stmt(s.Else)
	case *ast.ForStmt:
		c.stmt(s.Init)
		if s.Cond != nil {
			c.forCond(s.Cond)
		}
		c.stmt(s.Post)
		c.stmt(s.Body)
	case *ast.RangeStmt:
		key, val := c.rangeVals(c.l.info.Types[s.X].Type, c.expr(s.X))
		if s.Key != nil {
			c.bind(s.Key, key, token.NoPos)
		}
		if s.Value != nil {
			c.bind(s.Value, val, token.NoPos)
		}
		c.stmt(s.Body)
	case *ast.SwitchStmt:
		c.stmt(s.Init)
		if s.Tag != nil {
			c.expr(s.Tag)
		}
		c.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		c.stmt(s.Init)
		c.stmt(s.Assign)
		c.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			c.expr(e)
		}
		c.stmts(s.Body)
	case *ast.SelectStmt:
		c.stmt(s.Body)
	case *ast.CommClause:
		c.stmt(s.Comm)
		c.stmts(s.Body)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.expr(e)
		}
	case *ast.IncDecStmt:
		c.expr(s.X)
	case *ast.SendStmt:
		c.expr(s.Chan)
		c.expr(s.Value)
	case *ast.GoStmt:
		c.expr(s.Call)
	case *ast.DeferStmt:
		c.expr(s.Call)
	case *ast.LabeledStmt:
		c.stmt(s.Stmt)
	}
}

func (c *taintChecker) stmts(list []ast.Stmt) {
	for _, s := range list {
		c.stmt(s)
	}
}

// assign handles = and := (values evaluated left to right, then bound)
// and op= statements.
func (c *taintChecker) assign(s *ast.AssignStmt) {
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		c.opAssign(s)
		return
	}
	c.bindAll(s.Lhs, s.Rhs, s.Pos())
}

// declStmt handles `var x T = v` declarations.
func (c *taintChecker) declStmt(s *ast.DeclStmt) {
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
			c.bindAll(lhs, vs.Values, vs.Pos())
		}
	}
}

// bindAll evaluates the right-hand sides and binds each target; targets
// without a value (var x T, short tuples) are clean. A single multi-value
// right-hand side is a call, whose results the call hook fills, or a
// comma-ok form: the value, then a bool that carries nothing.
func (c *taintChecker) bindAll(lhs, rhs []ast.Expr, at token.Pos) {
	vals := make([]taintVal, len(lhs))
	if len(rhs) == 1 && len(lhs) > 1 {
		if call, ok := unparen(rhs[0]).(*ast.CallExpr); ok {
			c.call(call, vals)
		} else {
			vals[0] = c.expr(rhs[0])
		}
	} else {
		for i, r := range rhs {
			if v := c.expr(r); i < len(vals) {
				vals[i] = v
			}
		}
	}
	for i, l := range lhs {
		c.bind(l, vals[i], at)
	}
}
