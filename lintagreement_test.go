package camus

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestHotPathBenchAgreement is the dynamic half of the hot-path
// allocation contract: every function annotated `//camus:hotpath
// bench=Name` must not only pass the compiler's escape analysis
// (`camus-lint -oracle`, required by the CI lint job) but also measure
// ~zero allocs/op in the named benchmark. Escape analysis reads only the
// annotated bodies: it does not follow calls into unannotated callees,
// interfaces or func values, and it does not see a slice growing; this
// test is the backstop that measures the whole path.
func TestHotPathBenchAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark agreement in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}

	benches := collectBenchDirectives(t)
	if len(benches) == 0 {
		t.Fatal("no //camus:hotpath bench=... directives found in the module; the agreement test has nothing to check")
	}

	// allocsRe matches one -benchmem result line, e.g.
	//   BenchmarkProcessBatch/batch-16  200  833 ns/op  0 B/op  0 allocs/op
	allocsRe := regexp.MustCompile(`^(Benchmark\S+)\s.*?([0-9.]+) allocs/op`)

	for bench, dir := range benches {
		bench, dir := bench, dir
		t.Run(bench, func(t *testing.T) {
			// benchtime is iteration-pinned and generous: one-time
			// warm-up allocations (pool fills, ring side arrays) must
			// amortize below the threshold, exactly as they do in a
			// long-running switch.
			cmd := exec.Command("go", "test", "-run", "^$",
				"-bench", "^"+bench+"$", "-benchmem", "-benchtime", "20000x", "./"+dir)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("running %s in %s: %v\n%s", bench, dir, err, out)
			}
			matched := 0
			for _, line := range strings.Split(string(out), "\n") {
				m := allocsRe.FindStringSubmatch(strings.TrimSpace(line))
				if m == nil {
					continue
				}
				matched++
				allocs, err := strconv.ParseFloat(m[2], 64)
				if err != nil {
					t.Fatalf("parsing allocs/op from %q: %v", line, err)
				}
				if allocs > 0.01 {
					t.Errorf("%s: %s allocs/op exceeds the hot-path budget of 0.01:\n%s",
						bench, m[2], strings.TrimSpace(line))
				}
			}
			if matched == 0 {
				t.Fatalf("benchmark %s (named by a //camus:hotpath bench= directive in %s) produced no -benchmem result lines:\n%s",
					bench, dir, out)
			}
		})
	}
}

// collectBenchDirectives scans the module's non-test Go sources for
// `//camus:hotpath bench=Name` directives and returns benchmark name ->
// package directory (module-relative).
func collectBenchDirectives(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") && name != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if !strings.HasPrefix(line, "//camus:hotpath") {
				continue
			}
			for _, field := range strings.Fields(line[2:])[1:] {
				if b, ok := strings.CutPrefix(field, "bench="); ok && b != "" {
					if prev, dup := out[b]; dup && prev != filepath.Dir(path) {
						t.Fatalf("benchmark %s named from two packages: %s and %s", b, prev, filepath.Dir(path))
					}
					out[b] = filepath.Dir(path)
				}
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatalf("scanning module for bench directives: %v", err)
	}
	return out
}
