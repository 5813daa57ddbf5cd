package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Diagnostic is one floclint finding.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// Rule names, as reported and as accepted by //floclint:allow.
const (
	RuleSimTime    = "sim-time"
	RuleFloatEq    = "float-eq"
	RuleMapOrder   = "map-order"
	RuleEqGuard    = "eq-guard"
	RuleAtomics    = "atomics"
	RuleExhaustive = "exhaustive"
	RuleDirective  = "directive"
)

// rules is every rule name floclint reports.
var rules = []string{RuleSimTime, RuleFloatEq, RuleMapOrder, RuleEqGuard,
	RuleAtomics, RuleExhaustive, RuleDirective}

// bannedTimeFuncs are the time-package functions that read the wall clock
// or schedule on it. Simulation code must take the sim clock (a float64
// "now") as input instead, or every run would observe different times.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Tick": true, "After": true, "AfterFunc": true, "Sleep": true,
	"NewTimer": true, "NewTicker": true,
}

// bannedImports are import paths whose presence alone breaks determinism:
// all randomness must flow through internal/rng's seeded sources.
var bannedImports = map[string]string{
	"math/rand":    "use internal/rng (seeded, splittable) instead",
	"math/rand/v2": "use internal/rng (seeded, splittable) instead",
}

// allowDirective introduces a suppression comment:
// //floclint:allow <rule>[,<rule>...] [justification].
const allowDirective = "floclint:allow"

// linter lints the files of one type-checked package.
type linter struct {
	fset   *token.FileSet
	info   *types.Info
	dirs   *directives                 // module-wide floc:enum table
	allows map[string]map[int][]string // filename -> line -> rules suppressed there
	diags  []Diagnostic
}

// lintPackage runs every rule over one package's files.
func lintPackage(fset *token.FileSet, files []*ast.File, info *types.Info, dirs *directives) []Diagnostic {
	l := &linter{fset: fset, info: info, dirs: dirs,
		allows: map[string]map[int][]string{}}
	for _, f := range files {
		allows, unnamed := collectAllows(fset, f)
		l.allows[fset.Position(f.Pos()).Filename] = allows
		for _, pos := range unnamed {
			// A misspelt rule name would otherwise waive nothing, silently.
			l.report(pos, RuleDirective, "//floclint:allow names no rule, so it waives nothing; it must start with one of %s",
				strings.Join(rules, ", "))
		}
		lines := l.scanLines(f)
		l.checkImports(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				l.checkTimeCall(n)
				l.checkAtomicFunc(n)
			case *ast.BinaryExpr:
				l.checkFloatEq(n)
			case *ast.SwitchStmt:
				l.checkExhaustive(n, lines)
			}
			return true
		})
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			l.checkMapOrder(fn)
			l.checkEqGuard(fn)
		}
	}
	return l.diags
}

// collectAllows maps source lines to the rules suppressed there via
// //floclint:allow comments, and returns the positions of the waivers
// that name no rule. A waiver starts its comment, as a floc: directive
// does; prose that mentions one waives nothing.
func collectAllows(fset *token.FileSet, f *ast.File) (allow map[int][]string, unnamed []token.Pos) {
	allow = map[int][]string{}
	for _, group := range f.Comments {
		for _, c := range group.List {
			rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimLeft(c.Text, "/")), allowDirective)
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			named := len(allow[line])
			for _, field := range strings.FieldsFunc(rest, func(r rune) bool {
				return r == ' ' || r == ',' || r == '\t'
			}) {
				if !slices.Contains(rules, field) {
					break // the first non-rule token starts the justification
				}
				allow[line] = append(allow[line], field)
			}
			if len(allow[line]) == named {
				unnamed = append(unnamed, c.Pos())
			}
		}
	}
	return allow, unnamed
}

// report records a finding unless an allow comment on the same or the
// preceding line suppresses the rule.
func (l *linter) report(pos token.Pos, rule, format string, args ...any) {
	p := l.fset.Position(pos)
	allow := l.allows[p.Filename]
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, r := range allow[line] {
			if r == rule {
				return
			}
		}
	}
	l.diags = append(l.diags, Diagnostic{Pos: p, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

// checkImports flags banned imports (rule sim-time).
func (l *linter) checkImports(f *ast.File) {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if why, ok := bannedImports[path]; ok {
			l.report(imp.Pos(), RuleSimTime, "import of %s breaks run reproducibility; %s", path, why)
		}
	}
}

// pkgNameOf returns the imported package path if expr is a package
// qualifier identifier (e.g. the "time" in time.Now), or "".
func (l *linter) pkgNameOf(expr ast.Expr) string {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := l.info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// line returns the source line of pos (0 for token.NoPos).
func (l *linter) line(pos token.Pos) int { return l.fset.Position(pos).Line }

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// checkTimeCall flags wall-clock time functions (rule sim-time).
func (l *linter) checkTimeCall(sel *ast.SelectorExpr) {
	if l.pkgNameOf(sel.X) != "time" || !bannedTimeFuncs[sel.Sel.Name] {
		return
	}
	l.report(sel.Pos(), RuleSimTime,
		"time.%s reads or schedules on the wall clock; simulation code must derive time from the sim clock",
		sel.Sel.Name)
}

// checkFloatEq flags ==/!= between two non-constant floating-point
// expressions (rule float-eq). Comparisons where either side is a
// compile-time constant (sentinels such as 0) are allowed: they compare
// against an exactly-representable value the code deliberately stored.
func (l *linter) checkFloatEq(be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	xt, yt := l.info.Types[be.X], l.info.Types[be.Y]
	if xt.Value != nil || yt.Value != nil {
		return
	}
	if !isBasic(xt.Type, types.IsFloat) || !isBasic(yt.Type, types.IsFloat) {
		return
	}
	l.report(be.OpPos, RuleFloatEq,
		"%s between two non-constant floats is not a reliable comparison; use an epsilon, restructure, or //floclint:allow float-eq with justification",
		be.Op)
}

// isBasic reports whether t's underlying type is a basic type with any
// of the given properties (types.IsFloat, types.IsString, ...); false for
// nil.
func isBasic(t types.Type, info types.BasicInfo) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&info != 0
}

// checkMapOrder flags map iterations whose bodies leak the (randomized)
// iteration order: appending to a slice declared outside the loop with no
// subsequent sort call in the same function, or writing output directly
// from the loop body (rule map-order).
func (l *linter) checkMapOrder(fn *ast.FuncDecl) {
	// Positions of sort-package calls within the function; an append-leak
	// is cleared by any sort call after the loop (the idiom the repo uses:
	// collect from the map, then sort).
	var sortCalls []token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && l.pkgNameOf(sel.X) == "sort" {
			sortCalls = append(sortCalls, call.Pos())
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := l.info.Types[rs.X].Type
		if t == nil {
			return true
		}
		if _, ok := t.Underlying().(*types.Map); !ok {
			return true
		}
		l.checkMapRangeBody(rs, sortCalls)
		return true
	})
}

// checkMapRangeBody examines one map-range statement for order leaks.
func (l *linter) checkMapRangeBody(rs *ast.RangeStmt, sortCalls []token.Pos) {
	sortedAfter := func() bool {
		for _, p := range sortCalls {
			if p > rs.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name != "append" {
					return true
				}
				if _, ok := l.info.Uses[fun].(*types.Builtin); !ok {
					return true
				}
				if target := outerAppendTarget(l.info, n, rs); target != "" && !sortedAfter() {
					l.report(n.Pos(), RuleMapOrder,
						"append to %q inside map iteration leaks the randomized map order; sort it afterwards or iterate sorted keys", target)
				}
			case *ast.SelectorExpr:
				name := fun.Sel.Name
				if l.pkgNameOf(fun.X) == "fmt" &&
					(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
					l.report(n.Pos(), RuleMapOrder,
						"fmt.%s inside map iteration emits output in randomized map order; iterate sorted keys", name)
				} else if strings.HasPrefix(name, "Write") && l.pkgNameOf(fun.X) == "" {
					// A Write* method call (strings.Builder, bytes.Buffer,
					// io.Writer) accumulates in map order.
					l.report(n.Pos(), RuleMapOrder,
						"%s inside map iteration accumulates output in randomized map order; iterate sorted keys", name)
				}
			}
		}
		return true
	})
}

// outerAppendTarget returns the name of the variable receiving an append
// when that variable is declared outside the range statement (so the
// map order accumulates across iterations), or "".
func outerAppendTarget(info *types.Info, call *ast.CallExpr, rs *ast.RangeStmt) string {
	if len(call.Args) == 0 {
		return ""
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return ""
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return ""
	}
	if v.Pos() >= rs.Pos() && v.Pos() < rs.End() {
		return "" // loop-local accumulator: per-iteration, no cross-iteration order
	}
	return v.Name()
}

// checkEqGuard enforces that functions annotated with a "floc:eq" comment
// (implementations of a paper equation) guard their numeric inputs: an if
// comparing against a constant, a math.IsNaN/IsInf call, or an
// internal/invariant assertion (rule eq-guard).
func (l *linter) checkEqGuard(fn *ast.FuncDecl) {
	if !hasDirective(dirEq, fn.Doc) {
		return
	}
	guarded := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if guarded {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				pkg := l.pkgNameOf(sel.X)
				if pkg == "math" && (sel.Sel.Name == "IsNaN" || sel.Sel.Name == "IsInf") {
					guarded = true
				}
				if strings.HasSuffix(pkg, "internal/invariant") {
					guarded = true
				}
			}
		case *ast.IfStmt:
			if l.hasConstComparison(n.Cond) {
				guarded = true
			}
		}
		return !guarded
	})
	if !guarded {
		l.report(fn.Name.Pos(), RuleEqGuard,
			"%s implements a paper equation (floc:eq) but never guards its inputs; compare against a constant, call math.IsNaN/IsInf, or assert via internal/invariant",
			fn.Name.Name)
	}
}

// hasConstComparison reports whether the expression contains an ordered or
// equality comparison with a compile-time constant on either side.
func (l *linter) hasConstComparison(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			if l.info.Types[be.X].Value != nil || l.info.Types[be.Y].Value != nil {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
