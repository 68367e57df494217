// Command camus-lint runs the project's Go checks, using only the
// standard library. It has two modes.
//
// As a vet tool it adapts the analyzers of internal/lint (lockorder,
// goroleak) to the `go vet -vettool` unit-checker protocol:
//
//	go build -o camus-lint ./cmd/camus-lint
//	go vet -vettool=$PWD/camus-lint ./...
//
// The go command invokes the tool once per package with a JSON config
// file describing the unit: its Go files, the import map, the
// export-data file of every dependency, and the facts (.vetx) files of
// dependencies already analyzed. The tool type-checks the package
// against that export data, threads dependency facts into the
// analyzers (cross-package lock graphs), writes this package's facts to
// VetxOutput, prints findings as `file:line:col: message` on stderr, and
// exits 2 when there are any — exactly what `go vet` expects of a
// vettool. With -json (advertised via the -flags probe) findings go to
// stdout as the unitchecker JSON object and the exit code is 0.
//
// `camus-lint -oracle [dir]` is the hot-path allocation check. It
// rebuilds the module with -gcflags=-m, maps every "escapes to heap" /
// "moved to heap" report into the bodies of //camus:hotpath functions,
// and reports, exiting 2, each one that no `//camus:alloc-ok <reason>`
// on its line or the line above accounts for. A bare //camus:alloc-ok
// accounts for nothing. The compiler's escape analysis is the only model
// of what allocates; the annotation decides where it is read, so a
// callee the packet path reaches needs its own //camus:hotpath.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
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
	"strconv"
	"strings"

	"camus/internal/lint"
)

// moduleRoot is the import-path root of the module this tool lints;
// only packages under it are typechecked and fact-analyzed (stdlib and
// third-party units get empty facts and no diagnostics).
const moduleRoot = "camus"

// config mirrors the vet.cfg JSON the go command hands a vettool. Only
// the fields this tool consumes are declared; unknown fields are
// ignored by encoding/json.
type config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func main() {
	// The go command probes the tool's identity and flag set before
	// handing it any work; both answers must parse.
	args := os.Args[1:]
	var cfgPath string
	jsonMode := false
	for i, arg := range args {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			// Format contract: field 2 is the literal "version".
			fmt.Println("camus-lint version camus0.3")
			return
		case arg == "-flags" || arg == "--flags":
			fmt.Println(`[{"Name":"json","Bool":true,"Usage":"emit diagnostics as JSON on stdout and exit 0"}]`)
			return
		case arg == "-json" || arg == "--json" || arg == "-json=true" || arg == "--json=true":
			jsonMode = true
		case arg == "-oracle" || arg == "--oracle":
			os.Exit(runOracle(args[i+1:], os.Stderr))
		case strings.HasSuffix(arg, ".cfg"):
			cfgPath = arg
		}
	}
	if cfgPath == "" {
		fmt.Fprintln(os.Stderr, "camus-lint: usage: camus-lint path/to/vet.cfg (invoked by go vet -vettool), or camus-lint -oracle [dir]")
		os.Exit(2)
	}
	os.Exit(run(cfgPath, jsonMode))
}

func run(cfgPath string, jsonMode bool) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "camus-lint:", err)
		return 1
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "camus-lint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// Units outside the module (stdlib, vendored deps) carry no facts
	// and get no diagnostics; the go command still requires their facts
	// file to exist.
	if !underModule(cfg.ImportPath) {
		return writeFacts(&cfg, lint.PackageFacts{})
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return writeFacts(&cfg, lint.PackageFacts{})
			}
			fmt.Fprintln(os.Stderr, "camus-lint:", err)
			return 1
		}
		files = append(files, f)
	}

	pkg, info, err := typecheck(fset, files, &cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return writeFacts(&cfg, lint.PackageFacts{})
		}
		fmt.Fprintf(os.Stderr, "camus-lint: typechecking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	deps, err := readDepFacts(&cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "camus-lint:", err)
		return 1
	}

	diags, facts, err := lint.RunPackageFacts(lint.Analyzers(), fset, files, pkg, info, deps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "camus-lint:", err)
		return 1
	}
	if code := writeFacts(&cfg, facts); code != 0 {
		return code
	}
	if cfg.VetxOnly {
		// Dependency pass: facts only, no diagnostics wanted.
		return 0
	}

	if jsonMode {
		return emitJSON(cfg.ImportPath, diags)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", d.Pos, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

func underModule(path string) bool {
	return path == moduleRoot || strings.HasPrefix(path, moduleRoot+"/") ||
		strings.HasPrefix(path, moduleRoot+".") || strings.HasPrefix(path, moduleRoot+"_")
}

// writeFacts persists the unit's facts to VetxOutput (the go command
// requires the file to exist even when empty).
func writeFacts(cfg *config, facts lint.PackageFacts) int {
	if cfg.VetxOutput == "" {
		return 0
	}
	data, err := json.Marshal(facts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "camus-lint:", err)
		return 1
	}
	if err := os.WriteFile(cfg.VetxOutput, data, 0o666); err != nil {
		fmt.Fprintln(os.Stderr, "camus-lint:", err)
		return 1
	}
	return 0
}

// readDepFacts loads the facts files of every dependency the go
// command listed in PackageVetx, keyed by source-level import path.
func readDepFacts(cfg *config) (map[string]lint.PackageFacts, error) {
	deps := make(map[string]lint.PackageFacts, len(cfg.PackageVetx))
	for path, file := range cfg.PackageVetx {
		if !underModule(path) {
			continue
		}
		data, err := os.ReadFile(file)
		if err != nil || len(data) == 0 {
			continue // facts are advisory: a missing file only loses precision
		}
		var facts lint.PackageFacts
		if err := json.Unmarshal(data, &facts); err != nil {
			return nil, fmt.Errorf("decoding facts of %s (%s): %w", path, file, err)
		}
		deps[path] = facts
	}
	return deps, nil
}

// emitJSON prints diagnostics in the unitchecker JSON shape —
// {"pkgpath": {"analyzer": [{"posn", "message"}]}} — and reports exit
// code 0 (JSON consumers read findings from the payload).
func emitJSON(pkgPath string, diags []lint.Diagnostic) int {
	type jsonDiag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	byAnalyzer := map[string][]jsonDiag{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], jsonDiag{Posn: d.Pos.String(), Message: d.Message})
	}
	out := map[string]map[string][]jsonDiag{pkgPath: byAnalyzer}
	data, err := json.MarshalIndent(out, "", "\t")
	if err != nil {
		fmt.Fprintln(os.Stderr, "camus-lint:", err)
		return 1
	}
	os.Stdout.Write(append(data, '\n'))
	return 0
}

// typecheck loads the unit's dependencies from the export data the go
// command listed in PackageFile, translating source-level import paths
// through ImportMap (vendoring, test variants).
func typecheck(fset *token.FileSet, files []*ast.File, cfg *config) (*types.Package, *types.Info, error) {
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	tc := &types.Config{
		Importer: unsafeAware{importer.ForCompiler(fset, compiler, lookup)},
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	return pkg, info, err
}

// unsafeAware routes the "unsafe" pseudo-package around the export-data
// importer, which has no file to read for it.
type unsafeAware struct{ types.Importer }

func (u unsafeAware) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return u.Importer.Import(path)
}

// ---- oracle mode -----------------------------------------------------

// hotRange is one //camus:hotpath function's source extent.
type hotRange struct {
	file       string // module-relative, slash-separated
	start, end int
	name       string
}

// runOracle checks //camus:hotpath functions against the compiler's
// escape analysis, writing findings to stderr. Exit codes: 0 clean,
// 1 operational error, 2 unaccounted escapes found.
func runOracle(args []string, stderr io.Writer) int {
	dir := "."
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		dir = args[0]
	}
	root, err := findModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(stderr, "camus-lint: -oracle:", err)
		return 1
	}

	ranges, allowed, err := collectHotRanges(root)
	if err != nil {
		fmt.Fprintln(stderr, "camus-lint: -oracle:", err)
		return 1
	}
	if len(ranges) == 0 {
		fmt.Fprintln(stderr, "camus-lint: -oracle: no //camus:hotpath functions found")
		return 0
	}

	escapes, err := compilerEscapes(root)
	if err != nil {
		fmt.Fprintln(stderr, "camus-lint: -oracle:", err)
		return 1
	}

	found := 0
	for _, esc := range escapes {
		for _, hr := range ranges {
			if esc.file != hr.file || esc.line < hr.start || esc.line > hr.end {
				continue
			}
			if allowed[esc.file+":"+strconv.Itoa(esc.line)] {
				continue
			}
			fmt.Fprintf(stderr, "%s:%d:%d: hot path %s: compiler escape analysis reports: %s (annotate //camus:alloc-ok with a reason or restructure)\n",
				esc.file, esc.line, esc.col, hr.name, esc.msg)
			found++
			break
		}
	}
	if found > 0 {
		fmt.Fprintf(stderr, "camus-lint: -oracle: %d unaccounted escape(s) in //camus:hotpath functions\n", found)
		return 2
	}
	fmt.Fprintf(stderr, "camus-lint: -oracle: %d hot function(s) clean under -gcflags=-m\n", len(ranges))
	return 0
}

func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no go.mod above %s", abs)
		}
	}
}

// collectHotRanges parses every non-test .go file under root and
// returns the //camus:hotpath function extents plus the set of
// file:line positions covered by //camus:alloc-ok annotations that give
// a reason (the annotation's own line and the line below it).
func collectHotRanges(root string) ([]hotRange, map[string]bool, error) {
	var ranges []hotRange
	allowed := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || name == "vendor" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parsing %s: %v", rel, err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if reason, ok := strings.CutPrefix(c.Text, "//camus:alloc-ok "); ok && strings.TrimSpace(reason) != "" {
					line := fset.Position(c.Pos()).Line
					allowed[rel+":"+strconv.Itoa(line)] = true
					allowed[rel+":"+strconv.Itoa(line+1)] = true
				}
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil || fn.Body == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				if c.Text == "//camus:hotpath" || strings.HasPrefix(c.Text, "//camus:hotpath ") {
					ranges = append(ranges, hotRange{
						file:  rel,
						start: fset.Position(fn.Body.Pos()).Line,
						end:   fset.Position(fn.Body.End()).Line,
						name:  fn.Name.Name,
					})
					break
				}
			}
		}
		return nil
	})
	return ranges, allowed, err
}

// escapeLine is one relevant -gcflags=-m report.
type escapeLine struct {
	file      string
	line, col int
	msg       string
}

// compilerEscapes rebuilds the module's packages with -gcflags=-m
// (scoped to the module's import patterns, which also busts the build
// cache for them so the compiler actually re-emits diagnostics) and
// returns the heap-escape reports. Building several packages discards
// the results, so nothing is written.
func compilerEscapes(root string) ([]escapeLine, error) {
	cmd := exec.Command("go", "build",
		"-gcflags="+moduleRoot+"=-m",
		"-gcflags="+moduleRoot+"/...=-m",
		"./...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m failed: %v\n%s", err, truncate(stderr.String(), 4000))
	}
	var out []escapeLine
	sc := bufio.NewScanner(&stderr)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		if strings.Contains(line, "does not escape") {
			continue
		}
		esc, ok := parseEscapeLine(line)
		if !ok {
			continue
		}
		out = append(out, esc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out, nil
}

// parseEscapeLine splits "path/file.go:line:col: message".
func parseEscapeLine(s string) (escapeLine, bool) {
	rest := s
	i := strings.Index(rest, ".go:")
	if i < 0 {
		return escapeLine{}, false
	}
	file := strings.TrimPrefix(filepath.ToSlash(rest[:i+3]), "./") // gc names the root package's files ./name.go
	rest = rest[i+4:]
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) < 3 {
		return escapeLine{}, false
	}
	line, err1 := strconv.Atoi(parts[0])
	col, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return escapeLine{}, false
	}
	return escapeLine{file: file, line: line, col: col, msg: strings.TrimSpace(parts[2])}, true
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "\n[... truncated]"
}
