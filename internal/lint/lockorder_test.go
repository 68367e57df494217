package lint

import (
	"strings"
	"testing"
)

func syncDeps() map[string]string {
	return map[string]string{"sync": stubSync}
}

// TestLockOrderGolden: an inversion reported once, with the full cycle
// path, at the first closing edge in file order. Two shapes: two
// struct-field mutexes on different types with one leg running through a
// module-local call, and two mutex fields of one type taken in opposite
// orders by two of its methods under defer (the shape a seeded inversion
// of dataplane's updateMu → Switch.mu had; see CHANGES.md, PR 17).
func TestLockOrderGolden(t *testing.T) {
	for _, tc := range []struct {
		name      string
		src       string
		line, col int
		cycle     string
	}{
		{"two-types-through-call", `package app

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

func ab(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	lockB(b)
}

func lockB(b *B) {
	b.mu.Lock()
	b.mu.Unlock()
}

func ba(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}
`, 11, 2, "camus/app.A.mu -> camus/app.B.mu -> camus/app.A.mu"}, // the lockB(b) call made while holding A.mu
		{"one-type-two-methods", `package app

import "sync"

type Sw struct {
	updateMu sync.Mutex
	mu       sync.RWMutex
}

func (s *Sw) update() {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
}

func (s *Sw) adopt() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
}
`, 13, 2, "camus/app.Sw.updateMu -> camus/app.Sw.mu -> camus/app.Sw.updateMu"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			diags, _ := analyzeSeq(t, syncDeps(), []testPkg{{path: "camus/app", src: tc.src}})
			lo := byAnalyzer(diags["camus/app"], "lockorder")
			if len(lo) != 1 {
				t.Fatalf("got %d diagnostics, want exactly 1 (one cycle, reported once): %v", len(lo), lo)
			}
			d := lo[0]
			if d.Pos.Filename != "camus_app.go" || d.Pos.Line != tc.line || d.Pos.Column != tc.col {
				t.Errorf("diagnostic at %s:%d:%d, want camus_app.go:%d:%d", d.Pos.Filename, d.Pos.Line, d.Pos.Column, tc.line, tc.col)
			}
			if !strings.Contains(d.Message, "lock order cycle") || !strings.Contains(d.Message, tc.cycle) {
				t.Errorf("diagnostic %q should spell the full cycle path %q", d.Message, tc.cycle)
			}
		})
	}
}

// TestLockOrderSuppression: //camus:ok lockorder on one closing edge
// waives the whole cycle.
func TestLockOrderSuppression(t *testing.T) {
	src := `package app

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

func ab(a *A, b *B) {
	a.mu.Lock()
	//camus:ok lockorder fixture: ab and ba are never concurrent by construction
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func ba(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}
`
	diags, _ := analyzeSeq(t, syncDeps(), []testPkg{{path: "camus/app", src: src}})
	if lo := byAnalyzer(diags["camus/app"], "lockorder"); len(lo) != 0 {
		t.Fatalf("suppressed cycle still reported: %v", lo)
	}
}

// TestLockOrderNoCycle: consistent ordering everywhere produces no
// findings, including across RLock/Lock mixes and defer unlocks.
func TestLockOrderNoCycle(t *testing.T) {
	src := `package app

import "sync"

type Sw struct{ mu sync.RWMutex }
type Port struct{ mu sync.Mutex }

func process(s *Sw, p *Port) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p.mu.Lock()
	p.mu.Unlock()
}

func flush(s *Sw, p *Port) {
	s.mu.Lock()
	p.mu.Lock()
	p.mu.Unlock()
	s.mu.Unlock()
}
`
	diags, _ := analyzeSeq(t, syncDeps(), []testPkg{{path: "camus/app", src: src}})
	if lo := byAnalyzer(diags["camus/app"], "lockorder"); len(lo) != 0 {
		t.Fatalf("consistent order flagged: %v", lo)
	}
}

// TestLockOrderCrossPackage: the inversion's two legs live in
// different packages; the importer sees the dependency's edges through
// facts and reports the cycle.
func TestLockOrderCrossPackage(t *testing.T) {
	dep := testPkg{path: "camus/internal/base", src: `
package base

import "sync"

type Store struct{ Mu sync.Mutex }
type Index struct{ Mu sync.Mutex }

func Fill(s *Store, ix *Index) {
	s.Mu.Lock()
	ix.Mu.Lock()
	ix.Mu.Unlock()
	s.Mu.Unlock()
}
`}
	app := testPkg{path: "camus/app", src: `
package app

import "camus/internal/base"

func Drain(s *base.Store, ix *base.Index) {
	ix.Mu.Lock()
	s.Mu.Lock()
	s.Mu.Unlock()
	ix.Mu.Unlock()
}
`}
	diags, _ := analyzeSeq(t, syncDeps(), []testPkg{dep, app})
	if lo := byAnalyzer(diags["camus/internal/base"], "lockorder"); len(lo) != 0 {
		t.Fatalf("dependency alone reported a cycle: %v", lo)
	}
	lo := byAnalyzer(diags["camus/app"], "lockorder")
	if len(lo) != 1 {
		t.Fatalf("got %d diagnostics in importer, want 1: %v", len(lo), lo)
	}
	if !strings.Contains(lo[0].Message, "base.Store.Mu") || !strings.Contains(lo[0].Message, "base.Index.Mu") {
		t.Errorf("diagnostic %q should name both packages' locks", lo[0].Message)
	}
}

// TestLockOrderSelfEdge: re-acquiring the same lock node while holding
// it is a length-one cycle.
func TestLockOrderSelfEdge(t *testing.T) {
	src := `package app

import "sync"

type T struct{ mu sync.Mutex }

func bad(a, b *T) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}
`
	diags, _ := analyzeSeq(t, syncDeps(), []testPkg{{path: "camus/app", src: src}})
	lo := byAnalyzer(diags["camus/app"], "lockorder")
	if len(lo) != 1 {
		t.Fatalf("got %d diagnostics, want 1 self-edge cycle: %v", len(lo), lo)
	}
	if !strings.Contains(lo[0].Message, "camus/app.T.mu -> camus/app.T.mu") {
		t.Errorf("diagnostic %q should report the self cycle", lo[0].Message)
	}
}
