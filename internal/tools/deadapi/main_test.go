package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
)

// rootMod is the go.mod of every fixture's root module.
const rootMod = "module ex\n\ngo 1.24\n"

// gate runs the gate over an in-memory repository holding files (plus the
// root go.mod unless files names one) and returns its exit status and
// output lines.
func gate(files map[string]string) (int, []string) {
	fsys := fstest.MapFS{"go.mod": {Data: []byte(rootMod)}}
	for name, src := range files {
		fsys[name] = &fstest.MapFile{Data: []byte(src)}
	}
	var out bytes.Buffer
	code := run(fsys, &out)
	var lines []string
	if s := strings.TrimSpace(out.String()); s != "" {
		lines = strings.Split(s, "\n")
	}
	return code, lines
}

// expect runs the gate and holds it to an exit status and exact output.
func expect(t *testing.T, files map[string]string, code int, want ...string) {
	t.Helper()
	gotCode, got := gate(files)
	if gotCode != code || !slices.Equal(got, want) {
		t.Fatalf("exit %d, output\n\t%s\nwant exit %d, output\n\t%s",
			gotCode, strings.Join(got, "\n\t"), code, strings.Join(want, "\n\t"))
	}
}

// with returns base plus the extra files.
func with(base map[string]string, extra ...string) map[string]string {
	out := map[string]string{}
	for k, v := range base {
		out[k] = v
	}
	for i := 0; i+1 < len(extra); i += 2 {
		out[extra[i]] = extra[i+1]
	}
	return out
}

// usedDead is a package with one used and one dead func, and a command
// that calls the used one.
var usedDead = map[string]string{
	"internal/a/a.go": `package a

// Used is called from cmd.
func Used() {}

// Dead is called from nowhere.
func Dead() {}
`,
	"cmd/x/main.go": `package main

import "ex/internal/a"

func main() { a.Used() }
`,
}

func TestFuncWithNoCaller(t *testing.T) {
	expect(t, usedDead, 1, "internal/a/a.go:7: a.Dead has no non-test use")
}

func TestTestOnlyUse(t *testing.T) {
	files := with(usedDead,
		"internal/a/a_test.go", "package a\n\nfunc init() { Dead() }\n",
		"internal/a/x_test.go", "package a_test\n\nimport \"ex/internal/a\"\n\nfunc init() { a.Dead() }\n",
		"cmd/x/main_test.go", "package main\n\nimport \"ex/internal/a\"\n\nfunc init() { a.Dead() }\n")
	expect(t, files, 1, "internal/a/a.go:7: a.Dead has no non-test use")
}

func TestInterfaceUse(t *testing.T) {
	files := map[string]string{
		"internal/a/a.go": `package a

type T struct{}

func New() T { return T{} }

func (T) Get() int { return 1 }

func (T) Other() int { return 2 }
`,
		"internal/b/b.go": `package b

type Getter interface{ Get() int }

func Use(g Getter) int { return g.Get() }
`,
		"cmd/x/main.go": `package main

import (
	"ex/internal/a"
	"ex/internal/b"
)

func main() { b.Use(a.New()) }
`,
	}
	expect(t, files, 1, "internal/a/a.go:9: a.T.Other has no non-test use")
}

func TestEmbeddedPromotion(t *testing.T) {
	lib := `package a

type engine struct{}

func (e *engine) Epoch() int { return 0 }

func (e *engine) Dead() int { return 0 }

type Store struct{ engine }

func Open() *Store { return &Store{} }
`
	for name, main := range map[string]string{
		"selected":         "a.Open().Epoch()",
		"via an interface": "var h interface{ Epoch() int } = a.Open()\n\th.Epoch()",
	} {
		t.Run(name, func(t *testing.T) {
			expect(t, map[string]string{
				"internal/a/a.go": lib,
				"cmd/x/main.go":   "package main\n\nimport \"ex/internal/a\"\n\nfunc main() {\n\t" + main + "\n}\n",
			}, 1, "internal/a/a.go:7: a.engine.Dead has no non-test use")
		})
	}
}

func TestGenericReceiver(t *testing.T) {
	files := map[string]string{
		"internal/a/a.go": `package a

type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

func (b Box[T]) Put(v T) Box[T] { return Box[T]{v} }

func (b *Box[T]) Reset() {}

func Map[T, U any](b Box[T], f func(T) U) Box[U] { return Box[U]{f(b.v)} }

func Unused[T any](T) {}
`,
		"cmd/x/main.go": `package main

import "ex/internal/a"

func main() {
	var b a.Box[int]
	_ = a.Map(b, func(int) string { return "" }).Get()
	var r interface{ Reset() } = &b
	r.Reset()
}
`,
	}
	expect(t, files, 1,
		"internal/a/a.go:7: a.Box.Put has no non-test use",
		"internal/a/a.go:13: a.Unused has no non-test use")
}

func TestStringMethod(t *testing.T) {
	files := map[string]string{
		"internal/a/a.go": `package a

import "fmt"

type K int

func (K) String() string { return "k" }

func (K) Error() string { return "k" }

func (K) Is(error) bool { return false }

func (K) Unwrap() error { return nil }

func (K) Format(fmt.State, rune) {}

func (K) Name() string { return "k" }

var X K
`,
		"cmd/x/main.go": "package main\n\nimport \"ex/internal/a\"\n\nfunc main() { _ = a.X }\n",
	}
	expect(t, files, 1, "internal/a/a.go:17: a.K.Name has no non-test use")
}

func TestStdInterfaceUse(t *testing.T) {
	files := map[string]string{
		"internal/a/a.go": `package a

import "sort"

type byLen []string

func (s byLen) Len() int           { return len(s) }
func (s byLen) Less(i, j int) bool { return len(s[i]) < len(s[j]) }
func (s byLen) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s byLen) Extra()             {}

func Sort(xs []string) { sort.Sort(byLen(xs)) }
`,
		"cmd/x/main.go": "package main\n\nimport \"ex/internal/a\"\n\nfunc main() { a.Sort(nil) }\n",
	}
	expect(t, files, 1, "internal/a/a.go:10: a.byLen.Extra has no non-test use")
}

func TestMethodValueAndExpression(t *testing.T) {
	files := map[string]string{
		"internal/a/a.go": `package a

type T struct{}

func (T) Value() {}

func (T) Expr() {}

func (T) Dead() {}
`,
		"cmd/x/main.go": `package main

import "ex/internal/a"

func main() {
	f := a.T{}.Value
	g := a.T.Expr
	f()
	g(a.T{})
}
`,
	}
	expect(t, files, 1, "internal/a/a.go:9: a.T.Dead has no non-test use")
}

func TestCoveredKinds(t *testing.T) {
	files := map[string]string{
		"internal/a/a.go": `package a

const C = 1

const DeadConst = 2

var V = 3

var DeadVar = 4

type T struct{ Field, UnusedField int }

type DeadType struct{}

type I interface{ UnusedMethod() }

type Alias = T

func F() T { return T{Field: C + V} }
`,
		"cmd/x/main.go": "package main\n\nimport \"ex/internal/a\"\n\nvar _ a.I\n\nfunc main() { _ = a.F() }\n",
	}
	expect(t, files, 1,
		"internal/a/a.go:5: a.DeadConst has no non-test use",
		"internal/a/a.go:9: a.DeadVar has no non-test use",
		"internal/a/a.go:13: a.DeadType has no non-test use",
		"internal/a/a.go:17: a.Alias has no non-test use")
}

func TestUseInsideOwnPackage(t *testing.T) {
	files := map[string]string{
		"internal/a/a.go": "package a\n\nfunc Helper() int { return 1 }\n\nfunc Entry() int { return Helper() }\n",
		"cmd/x/main.go":   "package main\n\nimport \"ex/internal/a\"\n\nfunc main() { a.Entry() }\n",
	}
	expect(t, files, 0)
}

func TestOnlyInternalCovered(t *testing.T) {
	files := map[string]string{
		"ex.go":         "package ex\n\n// Facade is the root package's API.\nfunc Facade() {}\n",
		"cmd/x/main.go": "package main\n\nfunc Exported() {}\n\nfunc main() {}\n",
	}
	expect(t, files, 0)
}

func TestSecondModule(t *testing.T) {
	lib := "package a\n\nfunc ForBench() {}\n\nfunc Dead() {}\n"
	bench := map[string]string{
		"internal/a/a.go":   lib,
		"bench/go.mod":      "module ex/bench\n\ngo 1.24\n\nrequire ex v0.0.0\n\nreplace ex => ../\n",
		"bench/bench.go":    "package bench\n\nconst Ok = true\n",
		"bench/cmd/main.go": "package main\n\nimport (\n\t\"ex/bench\"\n\t\"ex/internal/a\"\n)\n\nfunc main() { a.ForBench(); _ = bench.Ok }\n",
	}
	expect(t, bench, 1, "internal/a/a.go:5: a.Dead has no non-test use")
	// Without the second module ForBench has no user either.
	expect(t, map[string]string{"internal/a/a.go": lib}, 1,
		"internal/a/a.go:3: a.ForBench has no non-test use",
		"internal/a/a.go:5: a.Dead has no non-test use")
}

func TestSkippedDirs(t *testing.T) {
	call := "package x\n\nimport \"ex/internal/a\"\n\nfunc init() { a.Dead() }\n"
	files := with(usedDead,
		"testdata/x/x.go", call,
		".hidden/x.go", call,
		"_old/x.go", call,
		"vendor/x/x.go", call)
	expect(t, files, 1, "internal/a/a.go:7: a.Dead has no non-test use")
}

func TestAllowlisted(t *testing.T) {
	files := with(usedDead, allowPath, "# kept on purpose\n\n  a.Dead   oracle   the reference\n")
	expect(t, files, 0)
}

func TestAllowNoReason(t *testing.T) {
	expect(t, with(usedDead, allowPath, "a.Dead\n"), 1,
		allowPath+":1: a.Dead has no reason")
}

func TestAllowUnknownReason(t *testing.T) {
	expect(t, with(usedDead, allowPath, "a.Dead because\n"), 1,
		allowPath+`:1: a.Dead: reason "because" is not oracle, fuzz, fixture or introspection`)
}

func TestAllowStale(t *testing.T) {
	expect(t, with(usedDead, allowPath, "a.Dead fuzz\na.Used oracle\na.Gone fixture\n"), 1,
		allowPath+":2: a.Used is listed but is gone or has a non-test use",
		allowPath+":3: a.Gone is listed but is gone or has a non-test use")
}

func TestNewDeadFuncFailsGate(t *testing.T) {
	clean := with(usedDead, allowPath, "a.Dead introspection\n")
	expect(t, clean, 0)
	grown := with(clean, "internal/a/more.go", "package a\n\n// Added is new API nothing calls.\nfunc Added() {}\n")
	expect(t, grown, 1, "internal/a/more.go:4: a.Added has no non-test use")
}

func TestLoadErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		files map[string]string
		want  string
	}{
		"type error": {
			files: map[string]string{"internal/a/a.go": "package a\n\nvar X int = \"x\"\n"},
			want:  "deadapi: internal/a/a.go:3:13:",
		},
		"missing import": {
			files: map[string]string{"internal/a/a.go": "package a\n\nimport \"ex/internal/none\"\n\nvar X = none.Y\n"},
			want:  `deadapi: internal/a/a.go:3:8: could not import ex/internal/none`,
		},
		"no module": {
			files: map[string]string{"go.mod": "go 1.24\n"},
			want:  "deadapi: go.mod: no module line",
		},
	} {
		t.Run(name, func(t *testing.T) {
			code, got := gate(tc.files)
			if code != 2 || len(got) != 1 || !strings.HasPrefix(got[0], tc.want) {
				t.Fatalf("exit %d, output %q; want exit 2 and a line starting %q", code, got, tc.want)
			}
		})
	}
}
