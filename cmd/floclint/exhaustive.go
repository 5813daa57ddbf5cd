package main

// The exhaustive rule: closed-enum switch coverage.
//
// The repo's dispatch enums — netsim.PacketKind, core drop reasons and
// router modes, wire error kinds, dataplane command kinds — are closed
// sets the paper's semantics depend on, and each grows when a protocol
// surface grows (the planned in-band pushback frames add packet kinds,
// a congestion-feedback frame adds wire error shapes). A type marked
// with a //floc:enum directive declares the set closed; every switch
// over it must then name every member, so adding a member breaks the
// build at every dispatch site instead of silently falling through a
// default.
//
// Members are the package-level constants of the marked type, collected
// syntactically per module (iota blocks inherit the type of the previous
// spec, mirroring Go's const-repetition rule). A count sentinel like
// numDropReasons is excluded with //floc:enumbound on its line.
//
// A default clause does NOT satisfy the rule: defaults are for the
// out-of-range values a cast can produce, not for members. A switch
// that deliberately handles a subset carries
// //floc:nonexhaustive <reason> on (or directly above) the switch line;
// the reason is mandatory.

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// collectEnumConsts walks one const block tracking the implied type of
// each spec: an explicit type sets it, a spec with neither type nor
// values repeats the previous spec (Go's const-repetition rule, the iota
// idiom), and a spec with values but no type is untyped and clears it.
func (d *directives) collectEnumConsts(pkgPath string, gd *ast.GenDecl) {
	curType := ""
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		switch {
		case vs.Type != nil:
			if id, ok := vs.Type.(*ast.Ident); ok {
				curType = id.Name
			} else {
				curType = "" // qualified or composite type: not a local enum
			}
		case len(vs.Values) > 0:
			curType = "" // untyped constant expression
		}
		if curType == "" {
			continue
		}
		if hasDirective(dirEnumBound, vs.Doc, vs.Comment) {
			continue // count sentinel: one past the last member
		}
		key := pkgPath + "." + curType
		for _, name := range vs.Names {
			if name.Name == "_" {
				continue
			}
			d.enumMembers[key] = append(d.enumMembers[key], name.Name)
		}
	}
}

// checkWaiverDirective reports a //floc:nonexhaustive with no reason (a
// waiver must say why the subset is the contract).
func (l *linter) checkWaiverDirective(d directive) {
	if len(d.args) == 0 {
		l.report(d.c.Pos(), RuleExhaustive,
			"//floc:nonexhaustive needs a reason (why is handling a subset of the enum the contract here?)")
	}
}

// checkExhaustive checks one switch: if its tag is a marked enum type it
// must cover every member or carry a reasoned waiver on (or directly
// above) its line.
func (l *linter) checkExhaustive(sw *ast.SwitchStmt, lines lineDirectives) {
	if sw.Tag == nil {
		return
	}
	key := namedKeyOf(l.info.Types[sw.Tag].Type)
	if !l.dirs.enums[key] {
		return
	}
	line := l.line(sw.Switch)
	for _, wl := range []int{line, line - 1} {
		if d, ok := lines.find(wl, dirNonexhaustive); ok && len(d.args) > 0 {
			return // reasoned waiver
		}
	}
	covered := l.coveredConsts(sw)
	var missing []string
	for _, m := range l.dirs.enumMembers[key] {
		if !covered[m] {
			missing = append(missing, m)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		l.report(sw.Switch, RuleExhaustive,
			"switch over %s does not cover %s; add the cases or waive with //floc:nonexhaustive <reason>",
			key, strings.Join(missing, ", "))
	}
}

// coveredConsts collects the constant names the switch's cases resolve
// to. Non-constant case expressions cover nothing.
func (l *linter) coveredConsts(sw *ast.SwitchStmt) map[string]bool {
	covered := map[string]bool{}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			var id *ast.Ident
			switch e := unparen(e).(type) {
			case *ast.Ident:
				id = e
			case *ast.SelectorExpr:
				id = e.Sel
			default:
				continue
			}
			if cst, ok := l.info.Uses[id].(*types.Const); ok {
				covered[cst.Name()] = true
			}
		}
	}
	return covered
}

// namedKeyOf returns "pkgpath.Name" for a named (possibly aliased) type,
// "" otherwise.
func namedKeyOf(t types.Type) string {
	if t == nil {
		return ""
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
