// Command deadapi is the dead-API gate of the CI docs job. It reports every
// exported identifier declared in a non-test file under internal/ that no
// non-test file in the repository uses, and holds the report to the
// checked-in allowlist allow.txt:
//
//	go run ./internal/tools/deadapi
//
// It runs from the repository root. Every non-test Go file is a consumer:
// the root facade, cmd/, examples/, internal/ and every nested module such
// as benchmark/, whose users would otherwise break when a name they need is
// deleted. The files are parsed with go/parser and type-checked with
// go/types; each module's own import paths resolve to its directories and
// everything else to the standard library through go/importer.
//
// Funcs, methods, types, consts and vars are covered; struct fields and
// interface methods are not. A use is a types.Info.Uses entry or a
// selection, so a method promoted through an embedded type counts at its
// declaration. A method also counts as used when it is named String, Error,
// Is, Unwrap or Format, when non-test code selects a method of its name on
// an interface its type implements, or when its type implements an
// interface declared by an imported standard-library package, whose code
// calls it unseen (sort.Interface, http.Handler).
//
// allow.txt holds one kept identifier per line, "pkg.Name reason [note]"
// (methods as pkg.Type.Name), where reason is oracle (a reference tests
// compare against), fuzz (a fuzz target's entry point), fixture (test
// set-up shared across packages) or introspection (the only way a test can
// observe a behaviour it checks). Blank lines and lines starting with # are
// ignored. The exit status is 1 on a finding the list does not hold, on a
// listed name that is gone or no longer dead, and on a line without one of
// the four reasons; 2 when the tree does not load or type-check.
package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strings"
)

// allowPath is the allowlist, relative to the repository root.
const allowPath = "internal/tools/deadapi/allow.txt"

var reasons = map[string]bool{"oracle": true, "fuzz": true, "fixture": true, "introspection": true}

func main() {
	os.Exit(run(os.DirFS("."), os.Stdout))
}

// run checks the tree in fsys against its allowlist, prints one line per
// problem to w and returns the exit status.
func run(fsys fs.FS, w io.Writer) int {
	dead, err := scan(fsys)
	if err != nil {
		fmt.Fprintf(w, "deadapi: %v\n", err)
		return 2
	}
	allow, err := fs.ReadFile(fsys, allowPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintf(w, "deadapi: %v\n", err)
		return 2
	}
	problems := compare(dead, string(allow))
	for _, p := range problems {
		fmt.Fprintln(w, p)
	}
	if len(problems) > 0 {
		return 1
	}
	return 0
}

// compare returns, in order, the allowlist's malformed lines, the findings
// it does not list and the entries that are no longer findings.
func compare(dead []finding, allow string) []string {
	var problems []string
	listed := map[string]int{} // key → allowlist line
	for i, line := range strings.Split(allow, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		switch {
		case len(f) < 2:
			problems = append(problems, fmt.Sprintf("%s:%d: %s has no reason", allowPath, i+1, f[0]))
		case !reasons[f[1]]:
			problems = append(problems, fmt.Sprintf("%s:%d: %s: reason %q is not oracle, fuzz, fixture or introspection", allowPath, i+1, f[0], f[1]))
		}
		listed[f[0]] = i + 1
	}
	found := map[string]bool{}
	for _, d := range dead {
		found[d.key] = true
		if listed[d.key] == 0 {
			problems = append(problems, fmt.Sprintf("%s:%d: %s has no non-test use", d.pos.Filename, d.pos.Line, d.key))
		}
	}
	var stale []string
	for key := range listed {
		if !found[key] {
			stale = append(stale, key)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return listed[stale[i]] < listed[stale[j]] })
	for _, key := range stale {
		problems = append(problems, fmt.Sprintf("%s:%d: %s is listed but is gone or has a non-test use", allowPath, listed[key], key))
	}
	return problems
}
