package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestOracle runs the hot-path allocation check over a fixture module
// whose root package holds the hot functions: an fmt.Errorf on a hot
// path is reported at its file:line with exit code 2, `//camus:alloc-ok <reason>` on the line above accounts for it,
// and a bare `//camus:alloc-ok` accounts for nothing. The amortized
// reuse idiom `buf = append(buf, c)` escapes nothing, so Put stays clean
// in every case.
func TestOracle(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	for _, tc := range []struct {
		name, directive string
		code            int
		want            string
	}{
		{"unannotated", "", 2,
			"hot.go:11:47: hot path Decode: compiler escape analysis reports: b[0] escapes to heap"},
		{"alloc-ok-with-reason", "//camus:alloc-ok error path; a well-formed input never takes it", 0,
			"camus-lint: -oracle: 2 hot function(s) clean under -gcflags=-m"},
		{"bare-alloc-ok", "//camus:alloc-ok", 2,
			"hot.go:11:47: hot path Decode"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			writeFile(t, filepath.Join(root, "go.mod"), "module camus\n\ngo 1.22\n")
			writeFile(t, filepath.Join(root, "hot.go"), `package camus

import "fmt"

// Decode checks a message's type byte.
//
//camus:hotpath
func Decode(b []byte) error {
	if b[0] != 'A' {
		`+tc.directive+`
		return fmt.Errorf("hot: type %q is not A", b[0])
	}
	return nil
}

// Put appends c to buf.
//
//camus:hotpath
func Put(buf []byte, c byte) []byte {
	buf = append(buf, c)
	return buf
}
`)
			var out strings.Builder
			code := runOracle([]string{root}, &out)
			if code != tc.code {
				t.Errorf("exit code %d, want %d", code, tc.code)
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out.String())
			}
			if strings.Contains(out.String(), "hot path Put") {
				t.Errorf("self-append reported:\n%s", out.String())
			}
		})
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
