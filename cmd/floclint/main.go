// Command floclint is the FLoc repository's custom static analyzer. It
// enforces repo-specific contracts that go vet and the type system cannot
// see, all of which protect the determinism and model-bound guarantees the
// simulations depend on (see DESIGN.md, "Determinism & invariants"):
//
//	sim-time   — no wall-clock time (time.Now, time.Since, timers) and no
//	             math/rand in simulation code; time flows through the sim
//	             clock and randomness through internal/rng, so runs are
//	             bit-for-bit reproducible.
//	float-eq   — no ==/!= between two non-constant floating-point
//	             expressions; comparisons against constants (sentinels
//	             like 0) are allowed.
//	map-order  — no map iteration whose body appends to an outer slice or
//	             writes output, unless the function sorts afterwards; map
//	             order is randomized per run and would leak into results.
//	eq-guard   — functions annotated with a "floc:eq" comment (paper
//	             equation implementations) must guard their inputs: a
//	             constant comparison, math.IsNaN/IsInf, or an
//	             internal/invariant assertion.
//	atomics    — no function-style sync/atomic operations
//	             (atomic.AddInt64(&x, 1) and friends): use the wrapper
//	             types, whose representation rules out mixed plain access
//	             and misalignment; copies of them are go vet's to report.
//	exhaustive — switches over //floc:enum types must cover every member
//	             (count sentinels excluded via //floc:enumbound) or
//	             carry //floc:nonexhaustive <reason>; a default clause
//	             does not satisfy the rule.
//	directive  — a //floc:<name> comment whose name no rule reads, and a
//	             //floclint:allow waiver that names no rule, are reported:
//	             a misspelling would otherwise annotate or waive nothing.
//
// Units are not a rule: internal/units types carry the dimensions and
// the compiler checks them (DESIGN.md, "Quantities are types"). Nor are
// per-packet allocation and input bounds: TestZeroAlloc* gates and the
// decoders' fuzz targets check them on the compiled code (DESIGN.md,
// "Rule ledger").
//
// A finding can be suppressed, with justification, by a trailing or
// preceding comment: //floclint:allow <rule> [reason].
//
// floclint is built on the standard library only (go/ast, go/parser,
// go/types); package loading shells out to `go list -export` and resolves
// imports from the build cache's export data.
//
// Usage:
//
//	go run ./cmd/floclint [-json] ./...
//
// -json switches the findings stream to machine-readable NDJSON (one
// {"file","line","col","rule","msg"} object per finding), for CI
// annotation tooling; the human file:line:col text form stays the
// default and is what the GitHub Actions problem matcher parses.
//
// Exit status is 0 when clean, 1 when findings were reported, 2 on errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

func main() {
	fixtures := flag.String("fixtures", "",
		"verify the fixture corpus under this directory: lint each fixture package and compare findings against its // WANT markers")
	jsonOut := flag.Bool("json", false,
		"emit findings as NDJSON ({\"file\",\"line\",\"col\",\"rule\",\"msg\"} per line) instead of text")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: floclint [-json] [-fixtures dir] [packages]\n\nFLoc repo-specific static analysis; see package doc for rules.\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	failed := false
	if *fixtures != "" {
		mismatches, counts, err := verifyCorpus(*fixtures)
		if err != nil {
			fmt.Fprintln(os.Stderr, "floclint:", err)
			os.Exit(2)
		}
		for _, m := range mismatches {
			fmt.Println(m)
		}
		fmt.Println(formatRuleCounts(counts))
		failed = len(mismatches) > 0
	}
	if len(patterns) == 0 && *fixtures == "" {
		patterns = []string{"./..."}
	}
	if len(patterns) > 0 {
		diags, err := runLint(patterns)
		if err != nil {
			fmt.Fprintln(os.Stderr, "floclint:", err)
			os.Exit(2)
		}
		if *jsonOut {
			if err := writeJSONFindings(os.Stdout, diags); err != nil {
				fmt.Fprintln(os.Stderr, "floclint:", err)
				os.Exit(2)
			}
		} else {
			for _, d := range diags {
				fmt.Printf("%s: %s: %s\n", d.Pos, d.Rule, d.Msg)
			}
		}
		failed = failed || len(diags) > 0
	}
	if failed {
		os.Exit(1)
	}
}

// listPkg is the subset of `go list -json` output floclint consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs `go list -e -json -export -deps` over the patterns and
// decodes the package stream. -export populates each package's build-cache
// export-data file, which is what lets a stdlib-only tool type-check
// against compiled dependencies; -deps pulls in the transitive closure so
// every import can be resolved.
func goList(patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-e", "-json", "-export", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from the export-data files `go list
// -export` reported, via the stdlib gc importer's lookup hook.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// runLint loads, type-checks, and lints every package matching the
// patterns (dependencies are loaded but not linted), returning findings
// sorted by position.
func runLint(patterns []string) ([]Diagnostic, error) {
	pkgs, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var targets []*listPkg
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	dirs, err := collectDirectiveTables(pkgs)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var all []Diagnostic
	for _, p := range targets {
		diags, err := lintOne(fset, imp, p, dirs)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return all, nil
}

// collectDirectiveTables syntax-parses every non-standard package in the
// load closure and gathers its floc: directives. The exhaustive rule needs
// them from every module package, linted or not: export data carries no
// comments.
func collectDirectiveTables(pkgs []*listPkg) (*directives, error) {
	dirs := newDirectives()
	cfset := token.NewFileSet()
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(cfset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			dirs.collect(p.ImportPath, f)
		}
	}
	return dirs, nil
}

// lintOne loads one package and runs the rules over it.
func lintOne(fset *token.FileSet, imp types.Importer, p *listPkg, dirs *directives) ([]Diagnostic, error) {
	files, info, err := loadPackage(fset, imp, p)
	if err != nil {
		return nil, err
	}
	return lintPackage(fset, files, info, dirs), nil
}

// loadPackage parses and type-checks one package. Only non-test Go files
// are loaded: tests are free to use wall-clock time, and the determinism
// contract covers simulation code only.
func loadPackage(fset *token.FileSet, imp types.Importer, p *listPkg) ([]*ast.File, *types.Info, error) {
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: imp, FakeImportC: true}
	if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
	}
	return files, info, nil
}

// jsonFinding is the NDJSON shape of one -json finding, matching the
// problem-matcher fields CI consumes.
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// writeJSONFindings emits one JSON object per finding, one per line.
func writeJSONFindings(w io.Writer, diags []Diagnostic) error {
	enc := json.NewEncoder(w)
	for _, d := range diags {
		f := jsonFinding{
			File: d.Pos.Filename,
			Line: d.Pos.Line,
			Col:  d.Pos.Column,
			Rule: d.Rule,
			Msg:  d.Msg,
		}
		if err := enc.Encode(f); err != nil {
			return err
		}
	}
	return nil
}
