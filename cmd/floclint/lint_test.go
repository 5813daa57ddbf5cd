package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// wantMarkers scans a fixture directory's Go files for "// WANT <rule>..."
// markers and returns the expected findings.
func wantMarkers(t *testing.T, dir string) map[finding]int {
	t.Helper()
	want, err := scanWantMarkers(dir)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// lintFixture runs the real loader+linter pipeline over one fixture
// package directory.
func lintFixture(t *testing.T, dir string) map[finding]int {
	t.Helper()
	diags, err := runLint([]string{"./" + dir})
	if err != nil {
		t.Fatalf("runLint(%s): %v", dir, err)
	}
	got := map[finding]int{}
	for _, d := range diags {
		got[finding{file: filepath.Base(d.Pos.Filename), line: d.Pos.Line, rule: d.Rule}]++
	}
	return got
}

// TestSeededViolations checks that every seeded violation is reported at
// its exact position, and nothing else is.
func TestSeededViolations(t *testing.T) {
	for _, fixture := range []string{"timeviol", "floateq", "maporder", "eqguard", "atomics", "exhaustive"} {
		t.Run(fixture, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", fixture)
			want := wantMarkers(t, dir)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no WANT markers", fixture)
			}
			got := lintFixture(t, dir)
			for _, miss := range diffFindings(want, got) {
				t.Errorf("expected finding not reported: %s", miss)
			}
			for _, extra := range diffFindings(got, want) {
				t.Errorf("unexpected finding: %s", extra)
			}
		})
	}
}

// TestCleanFixture checks the negative case: files exercising near-miss
// patterns of every rule yield zero findings.
func TestCleanFixture(t *testing.T) {
	for _, fixture := range []string{"clean", "atomicsclean", "exhaustiveclean"} {
		t.Run(fixture, func(t *testing.T) {
			got := lintFixture(t, filepath.Join("testdata", "src", fixture))
			if len(got) != 0 {
				t.Fatalf("%s fixture produced findings: %v", fixture, keysOf(got))
			}
		})
	}
}

// TestVerifyCorpus runs the -fixtures driver path over the whole corpus:
// the same comparison the per-fixture tests make, through the entry point
// check.sh invokes.
func TestVerifyCorpus(t *testing.T) {
	mismatches, counts, err := verifyCorpus(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mismatches {
		t.Errorf("corpus mismatch: %s", m)
	}
	for _, rule := range rules {
		if counts[rule] == 0 {
			t.Errorf("corpus exercises no %s findings", rule)
		}
	}
}

// TestCollectAllows pins the waiver grammar, //floclint:allow
// <rule>[,<rule>...] [justification]: the first token that names no rule
// starts the justification, no later word waives anything, and a waiver
// whose first token names no rule is returned as unnamed.
func TestCollectAllows(t *testing.T) {
	for _, tc := range []struct {
		comment string
		want    []string
		unnamed bool
	}{
		{"//floclint:allow sim-time", []string{RuleSimTime}, false},
		{"//floclint:allow sim-time,float-eq both are deliberate", []string{RuleSimTime, RuleFloatEq}, false},
		{"//floclint:allow sim-time not float-eq", []string{RuleSimTime}, false},
		{"//floclint:allow exhaustive, map-order see above", []string{RuleExhaustive, RuleMapOrder}, false},
		{"//floclint:allow because the map order is sorted", nil, true},
		{"//floclint:allow sim-tme misspelt", nil, true},
		{"//floclint:allow", nil, true},
		{"// the sim-time rule and //floclint:allow are prose here", nil, false},
	} {
		src := "package p\n\n" + tc.comment + "\nvar x int\n"
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		allow, unnamed := collectAllows(fset, f)
		if got := allow[3]; !slices.Equal(got, tc.want) {
			t.Errorf("%q waives %v, want %v", tc.comment, got, tc.want)
		}
		if got := len(unnamed) == 1; got != tc.unnamed || len(unnamed) > 1 {
			t.Errorf("%q: %d unnamed waivers, want unnamed = %v", tc.comment, len(unnamed), tc.unnamed)
		}
	}
}

// TestSelfClean lints floclint with itself.
func TestSelfClean(t *testing.T) {
	diags, err := runLint([]string{"."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("floclint is not self-clean: %s: %s: %s", d.Pos, d.Rule, d.Msg)
	}
}

// TestRepoSelfClean runs every rule over every package in the module and
// asserts zero findings: the repo's own code is the ultimate clean
// fixture, and this is what keeps the lint gate from drifting away from
// the tree (a rule change that suddenly flags shipped code fails here,
// not in CI's scripted stage).
func TestRepoSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped with -short")
	}
	diags, err := runLint([]string{"floc/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo is not floclint-clean: %s: %s: %s", d.Pos, d.Rule, d.Msg)
	}
}

// unsuppressedModuleFindings lints every package of the module with its
// //floclint:allow comments defused and returns the sorted
// "file: rule: message" triples of every rule but atomics, file relative
// to the module root. No line numbers: edits that move code do not move
// the result, edits that change what a rule sees do.
func unsuppressedModuleFindings(t *testing.T) []string {
	t.Helper()
	pkgs, err := goList([]string{"floc/..."})
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	dirs, err := collectDirectiveTables(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []string
	for _, p := range pkgs {
		if p.DepOnly || p.Standard {
			continue
		}
		files, info, err := loadPackage(fset, imp, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			for _, g := range f.Comments {
				for _, c := range g.List {
					c.Text = strings.ReplaceAll(c.Text, allowDirective, "floclint-allow")
				}
			}
		}
		for _, d := range lintPackage(fset, files, info, dirs) {
			if d.Rule == RuleAtomics {
				continue
			}
			rel, err := filepath.Rel(root, d.Pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%s: %s: %s", filepath.ToSlash(rel), d.Rule, d.Msg))
		}
	}
	sort.Strings(out)
	return out
}

// TestUnsuppressedModuleGolden is the same-findings oracle on real code:
// with every waiver ignored, each rule but atomics must report exactly
// what testdata/unsuppressed.golden records. The golden was produced by
// this helper at commit 2efce5a; a difference means a rule now sees the
// module differently, not that a line moved. Lines have since left it
// only with the code or the rule that produced them.
func TestUnsuppressedModuleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped with -short")
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "unsuppressed.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := unsuppressedModuleFindings(t)
	count := func(list []string) map[string]int {
		m := map[string]int{}
		for _, s := range list {
			m[s]++
		}
		return m
	}
	wantN, gotN := count(want), count(got)
	for s, n := range wantN {
		if gotN[s] != n {
			t.Errorf("golden has %d, module has %d of: %s", n, gotN[s], s)
		}
	}
	for s, n := range gotN {
		if wantN[s] == 0 {
			t.Errorf("not in golden (%d in module): %s", n, s)
		}
	}
}

// TestDiagnosticsSorted checks the output ordering contract: findings are
// sorted by file, then line, then column.
func TestDiagnosticsSorted(t *testing.T) {
	diags, err := runLint([]string{"./" + filepath.Join("testdata", "src", "maporder")})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	}) {
		t.Fatalf("diagnostics not sorted: %v", diags)
	}
}

func keysOf(m map[finding]int) []finding {
	var out []finding
	for f := range m {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
}
