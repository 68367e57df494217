// Package lint is a minimal go/analysis-style framework for the
// project's custom Go analyzers, built on the standard library alone
// (the x/tools analysis machinery is deliberately not a dependency).
//
// An Analyzer inspects one type-checked package through a Pass and
// reports diagnostics. cmd/camus-lint adapts the analyzers here to the
// `go vet -vettool` unit-checker protocol so they run over the whole
// module in CI; the unit tests drive them directly over in-memory
// packages. Only checks the compiler cannot make live here: lock order
// and goroutine shutdown. Allocation on the packet path is the
// compiler's own escape analysis, read by `camus-lint -oracle`.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -vettool output.
	Name string
	// Doc is a one-paragraph description of what the analyzer reports.
	Doc string
	// Run inspects the package behind pass and reports findings through
	// pass.Report. A returned error aborts the whole vet run — reserve it
	// for broken invariants, not findings.
	Run func(pass *Pass) error
}

// PackageFacts is one package's serialized analyzer outputs, keyed by
// analyzer name. It is the unit of cross-package communication: the
// driver (cmd/camus-lint, or the in-memory test harness) persists the
// facts a package exports and feeds them back in when analyzing its
// importers, mirroring the .vetx files of the real unitchecker protocol.
// JSON keeps the format debuggable and toolchain-independent.
type PackageFacts map[string]json.RawMessage

// Pass carries one package's syntax and type information to an
// analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report records one finding. The position is resolved through Fset.
	Report func(pos token.Pos, format string, args ...any)

	// depFacts holds the facts of every dependency, keyed by import path;
	// out collects this pass's exported fact under the analyzer's name.
	depFacts map[string]PackageFacts
	out      PackageFacts
}

// ExportFact serializes v as this package's fact for the running
// analyzer. Importing packages can retrieve it with ImportFact. Calling
// ExportFact again overwrites the previous fact.
func (p *Pass) ExportFact(v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("%s: encoding fact: %w", p.Analyzer.Name, err)
	}
	p.out[p.Analyzer.Name] = raw
	return nil
}

// ImportFact decodes the fact the running analyzer exported when it
// analyzed the dependency at pkgPath. It reports false when that
// package exported no fact (not part of the module, or analyzed by an
// older driver).
func (p *Pass) ImportFact(pkgPath string, v any) bool {
	facts, ok := p.depFacts[pkgPath]
	if !ok {
		return false
	}
	raw, ok := facts[p.Analyzer.Name]
	if !ok {
		return false
	}
	return json.Unmarshal(raw, v) == nil
}

// Reportf is sugar for pass.Report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, format, args...)
}

// Diagnostic is one finding with a resolved source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s", d.Pos, d.Message)
}

// Analyzers returns every analyzer this module ships, in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{LockOrder, GoroLeak}
}

// RunPackageFacts applies every analyzer to one type-checked package,
// making deps (import path -> that package's previously exported facts)
// available through Pass.ImportFact, and returns the diagnostics sorted
// by position together with the facts this package exports.
func RunPackageFacts(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, deps map[string]PackageFacts) ([]Diagnostic, PackageFacts, error) {
	var diags []Diagnostic
	out := PackageFacts{}
	for _, a := range analyzers {
		a := a
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(pos token.Pos, format string, args ...any) {
				diags = append(diags, Diagnostic{
					Pos:      fset.Position(pos),
					Analyzer: a.Name,
					Message:  fmt.Sprintf(format, args...),
				})
			},
			depFacts: deps,
			out:      out,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sortDiagnostics(diags)
	return diags, out, nil
}

func sortDiagnostics(diags []Diagnostic) {
	// Insertion sort: diagnostic counts are tiny and this avoids pulling
	// in sort for a slice of structs with a compound key.
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0 && diagBefore(diags[j], diags[j-1]); j-- {
			diags[j], diags[j-1] = diags[j-1], diags[j]
		}
	}
}

func diagBefore(a, b Diagnostic) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	return a.Message < b.Message
}

// deref unwraps one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func calleeIdent(fun ast.Expr) (*ast.Ident, bool) {
	switch f := fun.(type) {
	case *ast.Ident:
		return f, true
	case *ast.ParenExpr:
		return calleeIdent(f.X)
	}
	return nil, false
}

// calleeFunc resolves the static *types.Func a call targets, or nil for
// func values and unresolvable callees.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return f // package-qualified function
		}
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			if f, ok := pass.TypesInfo.Uses[id].(*types.Func); ok {
				return f
			}
		}
	}
	return nil
}

// isInterfaceMethod reports whether f is declared on an interface type
// (so its implementation cannot be resolved statically).
func isInterfaceMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// funcKey names a function unambiguously across packages:
// pkgpath.Func or pkgpath.Recv.Method (pointerness of the receiver is
// normalized away so call sites and declarations agree).
func funcKey(f *types.Func) string {
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Path()
	}
	sig, ok := f.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if named, ok := deref(sig.Recv().Type()).(*types.Named); ok {
			return pkg + "." + named.Obj().Name() + "." + f.Name()
		}
	}
	return pkg + "." + f.Name()
}

// moduleRoot returns the first path element of a package path — the
// module's root name ("camus" for camus/internal/...).
func moduleRoot(pkgPath string) string {
	root, _, _ := strings.Cut(pkgPath, "/")
	return root
}

// underModule reports whether path belongs to the module rooted at
// root.
func underModule(path, root string) bool {
	return path == root || strings.HasPrefix(path, root+"/")
}
