package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the static mutex-acquisition graph across the module
// and reports cycles — the lock inversions that become deadlocks the
// day two goroutines interleave. A lock node is a sync.Mutex/RWMutex
// that is a named struct field (pkg.Type.field) or a package-level var
// (pkg.var); local mutexes are skipped (they cannot participate in a
// cross-component inversion by construction — they never outlive the
// frame that created them, see DESIGN.md §5j).
//
// Within each function the analyzer tracks the held set through a
// linear statement walk: Lock/RLock adds the node (recording a
// held -> acquired edge), Unlock/RUnlock removes it, defer Unlock keeps
// it held to function end. Calls to module-local functions made while
// holding locks contribute edges to everything the callee transitively
// acquires (intra-package fixpoint; cross-package via facts). RLock is
// treated as Lock (reader/writer interleavings deadlock the same way).
// Function literal bodies are walked with a fresh held set (they
// usually run on other goroutines); branches are walked with a copy of
// the held set, so a lock acquired in one branch arm is considered
// released at the join — an under-approximation that favors precision.
//
// Cycles are reported at an edge acquired in the package under
// analysis, with the full cycle path; `//camus:ok lockorder <reason>`
// on that line suppresses it.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "report cycles in the static mutex-acquisition order graph " +
		"(potential lock inversions), with the full cycle path",
	Run: runLockOrder,
}

type lockFacts struct {
	// Funcs maps funcKey -> sorted transitive lock-acquire set.
	Funcs map[string][]string `json:"funcs"`
	// Edges is the module-wide held->acquired edge list accumulated so
	// far (own edges plus every dependency's).
	Edges []lockFactEdge `json:"edges"`
}

type lockFactEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	Pos  string `json:"pos"`
}

type lockEdge struct {
	from, to string
	pos      token.Pos
}

type lockCallRec struct {
	held   []string
	callee string
	pos    token.Pos
}

type funcLockInfo struct {
	acquires map[string]bool
	edges    []lockEdge
	calls    []lockCallRec
}

func runLockOrder(pass *Pass) error {
	modRoot := moduleRoot(pass.Pkg.Path())
	supp := newSuppressions(pass.Fset, pass.Files)

	local := map[string]*funcLockInfo{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			w := &lockWalker{pass: pass, modRoot: modRoot, info: &funcLockInfo{acquires: map[string]bool{}}}
			w.block(fn.Body.List, nil)
			// Function literals run with a fresh held set; their edges and
			// acquires still belong to this function's body text, but the
			// acquires are not folded into the enclosing function's summary
			// (the literal typically runs on another goroutine).
			for len(w.lits) > 0 {
				lit := w.lits[0]
				w.lits = w.lits[1:]
				w.block(lit.Body.List, nil)
			}
			local[funcKey(obj)] = w.info
		}
	}

	// Import dependency facts (each already merged transitively).
	extFuncs := map[string][]string{}
	var extEdges []lockFactEdge
	seenEdge := map[string]bool{}
	for _, imp := range pass.Pkg.Imports() {
		if !underModule(imp.Path(), modRoot) {
			continue
		}
		var facts lockFacts
		if !pass.ImportFact(imp.Path(), &facts) {
			continue
		}
		for k, v := range facts.Funcs {
			extFuncs[k] = v
		}
		for _, e := range facts.Edges {
			sig := e.From + "\x00" + e.To + "\x00" + e.Pos
			if !seenEdge[sig] {
				seenEdge[sig] = true
				extEdges = append(extEdges, e)
			}
		}
	}

	// Every function's transitive acquire set: this package's own, merged
	// over its dependencies' — the fact this package exports.
	acquires := extFuncs
	for k, v := range transitiveAcquires(local, extFuncs) {
		acquires[k] = v
	}

	// Expand call records into edges using the callees' transitive
	// acquire sets, whichever package declares the callee.
	var ownEdges []lockEdge
	for _, info := range local {
		ownEdges = append(ownEdges, info.edges...)
		for _, c := range info.calls {
			if len(c.held) == 0 {
				continue
			}
			for _, to := range acquires[c.callee] {
				for _, from := range c.held {
					ownEdges = append(ownEdges, lockEdge{from: from, to: to, pos: c.pos})
				}
			}
		}
	}
	sort.Slice(ownEdges, func(i, j int) bool {
		pi, pj := pass.Fset.Position(ownEdges[i].pos), pass.Fset.Position(ownEdges[j].pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return ownEdges[i].from+ownEdges[i].to < ownEdges[j].from+ownEdges[j].to
	})

	reportLockCycles(pass, ownEdges, extEdges, supp)

	// Export merged facts.
	out := lockFacts{Funcs: acquires, Edges: extEdges}
	for _, e := range ownEdges {
		fe := lockFactEdge{From: e.from, To: e.to, Pos: pass.Fset.Position(e.pos).String()}
		sig := fe.From + "\x00" + fe.To + "\x00" + fe.Pos
		if !seenEdge[sig] {
			seenEdge[sig] = true
			out.Edges = append(out.Edges, fe)
		}
	}
	return pass.ExportFact(out)
}

// transitiveAcquires computes, for every locally declared function, the
// set of lock nodes it may acquire directly or through module-local
// calls — a fixpoint over the local call graph seeded with the
// dependencies' (already transitive) sets.
func transitiveAcquires(local map[string]*funcLockInfo, ext map[string][]string) map[string][]string {
	cur := map[string]map[string]bool{}
	for k, info := range local {
		set := map[string]bool{}
		for l := range info.acquires {
			set[l] = true
		}
		cur[k] = set
	}
	for changed := true; changed; {
		changed = false
		for k, info := range local {
			set := cur[k]
			for _, c := range info.calls {
				if callee, ok := cur[c.callee]; ok {
					for l := range callee {
						if !set[l] {
							set[l] = true
							changed = true
						}
					}
				} else if locks, ok := ext[c.callee]; ok {
					for _, l := range locks {
						if !set[l] {
							set[l] = true
							changed = true
						}
					}
				}
			}
		}
	}
	out := make(map[string][]string, len(cur))
	for k, set := range cur {
		locks := make([]string, 0, len(set))
		for l := range set {
			locks = append(locks, l)
		}
		sort.Strings(locks)
		out[k] = locks
	}
	return out
}

// reportLockCycles searches for a path back from each own edge's target
// to its source over the global graph and reports each distinct cycle
// once, anchored at the own edge that closes it.
func reportLockCycles(pass *Pass, own []lockEdge, ext []lockFactEdge, supp *suppressions) {
	adj := map[string][]string{}
	addEdge := func(from, to string) {
		for _, t := range adj[from] {
			if t == to {
				return
			}
		}
		adj[from] = append(adj[from], to)
	}
	for _, e := range own {
		addEdge(e.from, e.to)
	}
	for _, e := range ext {
		addEdge(e.From, e.To)
	}
	for from := range adj {
		sort.Strings(adj[from])
	}

	// Group the closing edges by the cycle they witness: one report per
	// distinct cycle, and a `//camus:ok lockorder` on ANY of its own
	// edges waives the whole cycle (annotating every edge would be
	// order-dependent busywork).
	type cycleGroup struct {
		cycle []string
		edges []lockEdge
	}
	var order []string
	groups := map[string]*cycleGroup{}
	for _, e := range own {
		path := shortestLockPath(adj, e.to, e.from)
		if path == nil {
			continue
		}
		cycle := append([]string{e.from}, path...)
		// The canonical signature drops the closing repetition of the
		// start node — [A B A] and [B A B] are the same cycle.
		sig := canonicalCycle(cycle[:len(cycle)-1])
		g, ok := groups[sig]
		if !ok {
			g = &cycleGroup{cycle: cycle}
			groups[sig] = g
			order = append(order, sig)
		}
		g.edges = append(g.edges, e)
	}
	for _, sig := range order {
		g := groups[sig]
		waived := false
		for _, e := range g.edges {
			if reason, ok := supp.okFor(e.pos, "lockorder"); ok {
				if reason == "" {
					pass.Reportf(e.pos, "//camus:ok lockorder directive without a reason")
				}
				waived = true
			}
		}
		if waived {
			continue
		}
		e := g.edges[0]
		pass.Reportf(e.pos, "lock order cycle: %s; acquiring %s while holding %s here closes the cycle",
			strings.Join(g.cycle, " -> "), e.to, e.from)
	}
}

// shortestLockPath returns a shortest node path from src to dst over
// adj (inclusive of both), or nil if unreachable. src == dst returns
// [src] (a self-edge's cycle body).
func shortestLockPath(adj map[string][]string, src, dst string) []string {
	if src == dst {
		return []string{src}
	}
	prev := map[string]string{src: src}
	queue := []string{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, next := range adj[n] {
			if _, seen := prev[next]; seen {
				continue
			}
			prev[next] = n
			if next == dst {
				var path []string
				for at := dst; ; at = prev[at] {
					path = append([]string{at}, path...)
					if at == src {
						return path
					}
				}
			}
			queue = append(queue, next)
		}
	}
	return nil
}

// canonicalCycle produces a rotation-invariant signature for a cycle's
// node sequence.
func canonicalCycle(nodes []string) string {
	if len(nodes) == 0 {
		return ""
	}
	min := 0
	for i := range nodes {
		if nodes[i] < nodes[min] {
			min = i
		}
	}
	rotated := append(append([]string{}, nodes[min:]...), nodes[:min]...)
	return strings.Join(rotated, "\x00")
}

// lockWalker performs the linear held-set statement walk for one
// function body.
type lockWalker struct {
	pass    *Pass
	modRoot string
	info    *funcLockInfo
	lits    []*ast.FuncLit
}

// block walks a statement list, threading the held set through it, and
// returns the held set at the end.
func (w *lockWalker) block(stmts []ast.Stmt, held []string) []string {
	for _, s := range stmts {
		held = w.stmt(s, held)
	}
	return held
}

func copyHeld(held []string) []string {
	return append([]string(nil), held...)
}

func (w *lockWalker) stmt(s ast.Stmt, held []string) []string {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.block(s.List, held)
	case *ast.ExprStmt:
		return w.expr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			held = w.expr(e, held)
		}
		for _, e := range s.Lhs {
			held = w.expr(e, held)
		}
		return held
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						held = w.expr(v, held)
					}
				}
			}
		}
		return held
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		held = w.expr(s.Cond, held)
		w.block(s.Body.List, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
		return held
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			held = w.expr(s.Cond, held)
		}
		inner := w.block(s.Body.List, copyHeld(held))
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
		return held
	case *ast.RangeStmt:
		held = w.expr(s.X, held)
		w.block(s.Body.List, copyHeld(held))
		return held
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			held = w.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.block(cc.Body, copyHeld(held))
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.block(cc.Body, copyHeld(held))
			}
		}
		return held
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				inner := copyHeld(held)
				if cc.Comm != nil {
					inner = w.stmt(cc.Comm, inner)
				}
				w.block(cc.Body, inner)
			}
		}
		return held
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			held = w.expr(e, held)
		}
		return held
	case *ast.SendStmt:
		held = w.expr(s.Chan, held)
		return w.expr(s.Value, held)
	case *ast.DeferStmt:
		if op, id, ok := w.lockOp(s.Call); ok {
			switch op {
			case "Lock", "RLock":
				held = w.acquire(id, held, s.Call.Pos())
			case "Unlock", "RUnlock":
				// Runs at function exit: the lock stays held for the rest
				// of this walk, which is exactly what we want.
			}
			return held
		}
		return w.expr(s.Call, held)
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the caller's held set;
		// a function-literal body is queued for an independent walk and
		// named callees contribute no edges from here.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.lits = append(w.lits, lit)
		}
		return held
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.IncDecStmt:
		return w.expr(s.X, held)
	}
	return held
}

// expr scans an expression for lock operations and calls, in syntactic
// order, threading the held set.
func (w *lockWalker) expr(e ast.Expr, held []string) []string {
	if e == nil {
		return held
	}
	switch e := e.(type) {
	case *ast.FuncLit:
		w.lits = append(w.lits, e)
		return held
	case *ast.CallExpr:
		// Arguments evaluate before the call.
		for _, a := range e.Args {
			held = w.expr(a, held)
		}
		if op, id, ok := w.lockOp(e); ok {
			switch op {
			case "Lock", "RLock":
				held = w.acquire(id, held, e.Pos())
			case "Unlock", "RUnlock":
				held = release(held, id)
			}
			return held
		}
		held = w.expr(e.Fun, held)
		if f := calleeFunc(w.pass, e); f != nil && f.Pkg() != nil &&
			underModule(f.Pkg().Path(), w.modRoot) && !isInterfaceMethod(f) {
			w.info.calls = append(w.info.calls, lockCallRec{
				held:   copyHeld(held),
				callee: funcKey(f),
				pos:    e.Pos(),
			})
		}
		return held
	case *ast.ParenExpr:
		return w.expr(e.X, held)
	case *ast.SelectorExpr:
		return w.expr(e.X, held)
	case *ast.UnaryExpr:
		return w.expr(e.X, held)
	case *ast.BinaryExpr:
		held = w.expr(e.X, held)
		return w.expr(e.Y, held)
	case *ast.IndexExpr:
		held = w.expr(e.X, held)
		return w.expr(e.Index, held)
	case *ast.SliceExpr:
		held = w.expr(e.X, held)
		held = w.expr(e.Low, held)
		held = w.expr(e.High, held)
		return w.expr(e.Max, held)
	case *ast.StarExpr:
		return w.expr(e.X, held)
	case *ast.TypeAssertExpr:
		return w.expr(e.X, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			held = w.expr(el, held)
		}
		return held
	case *ast.KeyValueExpr:
		return w.expr(e.Value, held)
	}
	return held
}

func (w *lockWalker) acquire(id string, held []string, pos token.Pos) []string {
	for _, h := range held {
		w.info.edges = append(w.info.edges, lockEdge{from: h, to: id, pos: pos})
	}
	w.info.acquires[id] = true
	return append(held, id)
}

func release(held []string, id string) []string {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == id {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

// lockOp recognizes (Lock|RLock|Unlock|RUnlock) method calls on
// sync.Mutex / sync.RWMutex values whose receiver resolves to a lock
// node, returning the operation and the node ID.
func (w *lockWalker) lockOp(call *ast.CallExpr) (op, id string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	selection, inSel := w.pass.TypesInfo.Selections[sel]
	if !inSel {
		return "", "", false
	}
	m, isFunc := selection.Obj().(*types.Func)
	if !isFunc || m.Pkg() == nil || m.Pkg().Path() != "sync" {
		return "", "", false
	}
	id, ok = w.lockNode(sel.X)
	if !ok {
		return "", "", false
	}
	return sel.Sel.Name, id, true
}

// lockNode names the mutex-valued expression: a named struct's field
// (pkg.Type.field) or a package-level var (pkg.var). Anything else —
// local mutexes, map entries, anonymous structs — is not a node.
func (w *lockWalker) lockNode(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := w.pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if named, ok := deref(sel.Recv()).(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name, true
			}
			return "", false
		}
		// Package-qualified var: pkg.Mu.
		if v, ok := w.pass.TypesInfo.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), true
		}
	case *ast.Ident:
		if v, ok := w.pass.TypesInfo.Uses[e].(*types.Var); ok && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), true
		}
	}
	return "", false
}
