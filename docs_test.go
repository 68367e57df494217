package camus

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// documents are the repository's prose that names its tests and
// packages.
var documents = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// TestDocumentsNameOnlyTestsThatExist: every Test…, Benchmark… or Fuzz…
// name the documents give is a test function of the repository, or the
// prefix of one that a -run pattern selects it by.
func TestDocumentsNameOnlyTestsThatExist(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(funcs)
	named := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9]\w*`)
	for _, doc := range documents {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range named.FindAllString(string(src), -1) {
			if i, _ := slices.BinarySearch(funcs, name); i == len(funcs) || !strings.HasPrefix(funcs[i], name) {
				t.Errorf("%s names %s, which is neither a test function nor the prefix of one", doc, name)
			}
		}
	}
}

// TestDocumentsNameOnlyPackagesThatExist: every internal/…, cmd/… or
// examples/… path the documents give names a directory of the
// repository.
func TestDocumentsNameOnlyPackagesThatExist(t *testing.T) {
	named := regexp.MustCompile(`\b(?:internal|cmd|examples)/[A-Za-z0-9_-]+`)
	for _, doc := range documents {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range named.FindAllString(string(src), -1) {
			if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory", doc, dir)
			}
		}
	}
}

// TestDocumentsCiteROADMAPItemsByTitle: ROADMAP.md renumbers its items at
// every re-anchor, so a document that cites one by number goes stale;
// cite the item's title instead.
func TestDocumentsCiteROADMAPItemsByTitle(t *testing.T) {
	cite := regexp.MustCompile(`ROADMAP\s+items?\s+\d`)
	for _, doc := range documents {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := cite.FindString(line); m != "" {
				t.Errorf("%s:%d cites %q by number; cite the item's title", doc, i+1, m)
			}
		}
	}
}
