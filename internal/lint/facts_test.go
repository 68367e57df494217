package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"strings"
	"testing"
)

// mapImporter resolves imports from pre-typechecked packages.
type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m[path]; ok {
		return pkg, nil
	}
	return nil, fmt.Errorf("stub importer: unknown package %q", path)
}

// stubSync declares the sync surface lockorder and goroleak match on.
const stubSync = `
package sync

type Mutex struct{ state int32 }

func (m *Mutex) Lock()
func (m *Mutex) Unlock()

type RWMutex struct{ state int32 }

func (m *RWMutex) Lock()
func (m *RWMutex) Unlock()
func (m *RWMutex) RLock()
func (m *RWMutex) RUnlock()

type WaitGroup struct{ state int32 }

func (w *WaitGroup) Add(delta int)
func (w *WaitGroup) Done()
func (w *WaitGroup) Wait()
`

// stubContext declares just enough of context for the ctx-delegation
// rule.
const stubContext = `
package context

type Context interface {
	Done() <-chan struct{}
}

func Background() Context
`

// testPkg is one module package in an analyzeSeq fixture, analyzed in
// slice order so facts flow from dependencies to importers.
type testPkg struct {
	path string
	src  string
}

// analyzeSeq typechecks stub dependencies (never analyzed), then
// typechecks and analyzes each module package in order with
// RunPackageFacts, threading each package's exported facts into its
// importers exactly as cmd/camus-lint does with .vetx files. It
// returns the diagnostics and facts per package path.
func analyzeSeq(t *testing.T, stubs map[string]string, pkgs []testPkg) (map[string][]Diagnostic, map[string]PackageFacts) {
	t.Helper()
	fset := token.NewFileSet()
	imp := mapImporter{}
	for path, src := range stubs {
		f, err := parser.ParseFile(fset, path+"/stub.go", src, 0)
		if err != nil {
			t.Fatalf("parsing stub %s: %v", path, err)
		}
		cfg := &types.Config{Importer: imp}
		pkg, err := cfg.Check(path, fset, []*ast.File{f}, nil)
		if err != nil {
			t.Fatalf("typechecking stub %s: %v", path, err)
		}
		imp[path] = pkg
	}
	diags := map[string][]Diagnostic{}
	facts := map[string]PackageFacts{}
	for _, tp := range pkgs {
		name := strings.ReplaceAll(tp.path, "/", "_") + ".go"
		f, err := parser.ParseFile(fset, name, tp.src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", tp.path, err)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		cfg := &types.Config{Importer: imp}
		pkg, err := cfg.Check(tp.path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("typechecking %s: %v", tp.path, err)
		}
		imp[tp.path] = pkg
		d, out, err := RunPackageFacts(Analyzers(), fset, []*ast.File{f}, pkg, info, facts)
		if err != nil {
			t.Fatalf("analyzing %s: %v", tp.path, err)
		}
		diags[tp.path] = d
		facts[tp.path] = out
	}
	return diags, facts
}

// checkNamed typechecks src as a single file with an explicit file
// name (the analyzers' test-file exemptions key off it) and runs every
// analyzer.
func checkNamed(t *testing.T, pkgPath, filename, src string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing %s: %v", filename, err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	cfg := &types.Config{Importer: mapImporter{}}
	pkg, err := cfg.Check(pkgPath, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typechecking %s: %v", pkgPath, err)
	}
	diags, _, err := RunPackageFacts(Analyzers(), fset, []*ast.File{f}, pkg, info, nil)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	return diags
}

// byAnalyzer filters diagnostics to one analyzer.
func byAnalyzer(diags []Diagnostic, name string) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Analyzer == name {
			out = append(out, d)
		}
	}
	return out
}

// TestFactRoundTrip proves the fact protocol end to end on lockorder's
// facts: a dependency exports each function's lock-acquire set and its
// acquisition edges, the middle package re-exports them merged with its
// own, and an importer that sees only the middle package closes a cycle
// with an edge two packages away.
func TestFactRoundTrip(t *testing.T) {
	dep := testPkg{path: "camus/internal/depa", src: `
package depa

import "sync"

type Store struct{ Mu sync.Mutex }
type Index struct{ Mu sync.Mutex }

func Fill(s *Store, ix *Index) {
	s.Mu.Lock()
	ix.Mu.Lock()
	ix.Mu.Unlock()
	s.Mu.Unlock()
}

func LockStore(s *Store) {
	s.Mu.Lock()
	s.Mu.Unlock()
}
`}
	mid := testPkg{path: "camus/internal/midb", src: `
package midb

import "camus/internal/depa"

type Pair struct {
	S depa.Store
	I depa.Index
}

func Via(p *Pair) { depa.LockStore(&p.S) }
`}
	app := testPkg{path: "camus/app", src: `
package app

import "camus/internal/midb"

func Drain(p *midb.Pair) {
	p.I.Mu.Lock()
	midb.Via(p)
	p.I.Mu.Unlock()
}
`}
	diags, facts := analyzeSeq(t, syncDeps(), []testPkg{dep, mid, app})
	const store, index = "camus/internal/depa.Store.Mu", "camus/internal/depa.Index.Mu"
	decode := func(pkg string) lockFacts {
		t.Helper()
		raw, ok := facts[pkg]["lockorder"]
		if !ok {
			t.Fatalf("%s exported no lockorder fact", pkg)
		}
		var f lockFacts
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Fatalf("decoding %s fact: %v", pkg, err)
		}
		return f
	}
	hasEdge := func(f lockFacts, from, to string) bool {
		for _, e := range f.Edges {
			if e.From == from && e.To == to {
				return true
			}
		}
		return false
	}

	// The dependency's exported fact decodes into the documented shape.
	depFacts := decode("camus/internal/depa")
	if got := depFacts.Funcs["camus/internal/depa.Fill"]; !reflect.DeepEqual(got, []string{index, store}) {
		t.Errorf("depa fact: Fill acquires %v, want [%s %s]", got, index, store)
	}
	if got := depFacts.Funcs["camus/internal/depa.LockStore"]; !reflect.DeepEqual(got, []string{store}) {
		t.Errorf("depa fact: LockStore acquires %v, want [%s]", got, store)
	}
	if !hasEdge(depFacts, store, index) {
		t.Errorf("depa fact lacks Fill's edge %s -> %s: %+v", store, index, depFacts.Edges)
	}

	// The middle package re-exports the dependency's facts merged with
	// its own, so importers need only their direct imports.
	midFacts := decode("camus/internal/midb")
	if got := midFacts.Funcs["camus/internal/midb.Via"]; !reflect.DeepEqual(got, []string{store}) {
		t.Errorf("midb fact: Via acquires %v, want [%s] through depa.LockStore", got, store)
	}
	if _, ok := midFacts.Funcs["camus/internal/depa.LockStore"]; !ok || !hasEdge(midFacts, store, index) {
		t.Errorf("midb fact did not re-export depa's functions and edges: %+v", midFacts)
	}

	// And the importer closes the cycle at its call site.
	lo := byAnalyzer(diags["camus/app"], "lockorder")
	if len(lo) != 1 {
		t.Fatalf("got %d lockorder diagnostics in app, want 1: %v", len(lo), lo)
	}
	if want := index + " -> " + store + " -> " + index; !strings.Contains(lo[0].Message, want) {
		t.Errorf("diagnostic %q does not spell out the cross-package cycle %s", lo[0].Message, want)
	}
	if lo[0].Pos.Line != 8 {
		t.Errorf("diagnostic at line %d, want the midb.Via call at line 8", lo[0].Pos.Line)
	}
}
