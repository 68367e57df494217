package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// This file parses the one //camus: directive the analyzers act on
// (documented in DESIGN.md §5j):
//
//	//camus:ok <analyzer> <reason>
//	    On, or on the line above, a lockorder or goroleak finding:
//	    suppress it, with a mandatory human-readable reason.
//
// Directives must be //-comments with no space before "camus:" — the
// same lexical convention as //go: directives — so ordinary prose
// mentioning the words never triggers a check. //camus:hotpath and
// //camus:alloc-ok belong to the escape check, `camus-lint -oracle`.

// suppressions indexes //camus:ok directives by file and line. A
// directive suppresses findings on its own line and on the line directly
// below it (the standalone-comment-above-the-statement form).
type suppressions struct {
	fset *token.FileSet
	// byKey maps "file\x00line" to the arguments of the directive there.
	byKey map[string]string
}

func newSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{fset: fset, byKey: make(map[string]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body, ok := strings.CutPrefix(c.Text, "//camus:")
				if !ok {
					continue
				}
				if verb, args, _ := strings.Cut(body, " "); verb == "ok" {
					pos := fset.Position(c.Pos())
					s.byKey[suppKey(pos.Filename, pos.Line)] = strings.TrimSpace(args)
				}
			}
		}
	}
	return s
}

func suppKey(file string, line int) string {
	return file + "\x00" + strconv.Itoa(line)
}

// okFor reports whether pos is covered by a `//camus:ok <analyzer>`
// directive for the named analyzer, returning the reason. An empty
// reason means the directive is malformed (callers report that).
func (s *suppressions) okFor(pos token.Pos, analyzer string) (reason string, ok bool) {
	p := s.fset.Position(pos)
	args, ok := s.byKey[suppKey(p.Filename, p.Line)]
	if !ok {
		args, ok = s.byKey[suppKey(p.Filename, p.Line-1)]
	}
	if !ok {
		return "", false
	}
	name, rest, _ := strings.Cut(args, " ")
	if name != analyzer {
		return "", false
	}
	return strings.TrimSpace(rest), true
}
