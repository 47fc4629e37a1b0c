package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"sort"
	"strings"
)

// alwaysUsed are the method names fmt and errors call on any value,
// whatever interface it was passed as.
var alwaysUsed = map[string]bool{"String": true, "Error": true, "Is": true, "Unwrap": true, "Format": true}

// A finding is one exported identifier with no non-test use.
type finding struct {
	key string // pkg.Name, or pkg.Type.Name for a method
	pos token.Position
}

// A loader type-checks the repository's packages on demand, in import
// order, and keeps the standard-library packages they import beside them.
type loader struct {
	fsys  fs.FS
	fset  *token.FileSet
	dirs  map[string]string   // import path → directory
	files map[string][]string // directory → its non-test .go files
	mods  map[string]string   // directory holding a go.mod → module path
	pkgs  map[string]*types.Package
	infos []*types.Info
	std   types.Importer
}

// scan loads every non-test package in fsys and returns, in file order,
// the exported identifiers under internal/ that none of them uses.
func scan(fsys fs.FS) ([]finding, error) {
	l := &loader{fsys: fsys, fset: token.NewFileSet(), dirs: map[string]string{},
		files: map[string][]string{}, mods: map[string]string{}, pkgs: map[string]*types.Package{}}
	l.std = importer.ForCompiler(l.fset, "gc", nil)
	if err := l.walk(); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}
	used := l.uses()
	var dead []finding
	note := func(key string, obj types.Object, used bool) {
		if !used {
			dead = append(dead, finding{key, l.fset.Position(obj.Pos())})
		}
	}
	for _, p := range paths {
		if dir := l.dirs[p]; dir != "internal" && !strings.HasPrefix(dir, "internal/") {
			continue
		}
		pkg := l.pkgs[p]
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				note(pkg.Name()+"."+name, obj, used[obj])
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() {
					note(pkg.Name()+"."+name+"."+m.Name(), m, used[m] || alwaysUsed[m.Name()])
				}
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	return dead, nil
}

// walk finds the modules and the non-test Go files, skipping the
// directories the go command ignores, and maps each import path to its
// directory.
func (l *loader) walk() error {
	err := fs.WalkDir(l.fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return fs.SkipDir
			}
			return nil
		}
		switch {
		case name == "go.mod":
			src, err := fs.ReadFile(l.fsys, p)
			if err != nil {
				return err
			}
			mp := modulePath(string(src))
			if mp == "" {
				return fmt.Errorf("%s: no module line", p)
			}
			l.mods[path.Dir(p)] = mp
		case strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go"):
			l.files[path.Dir(p)] = append(l.files[path.Dir(p)], p)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for dir := range l.files {
		// The innermost go.mod above dir names its module.
		rel := ""
		for m := dir; ; m = path.Dir(m) {
			if mp, ok := l.mods[m]; ok {
				l.dirs[path.Join(mp, rel)] = dir
				break
			}
			if m == "." {
				return fmt.Errorf("%s: not inside a module", dir)
			}
			rel = path.Join(path.Base(m), rel)
		}
	}
	return nil
}

// modulePath returns the path on go.mod's module line.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

// Import type-checks the repository package at path, or imports a
// standard-library one; it makes loader a types.Importer.
func (l *loader) Import(ip string) (*types.Package, error) {
	if pkg, ok := l.pkgs[ip]; ok {
		return pkg, nil
	}
	dir, ok := l.dirs[ip]
	if !ok {
		for _, mp := range l.mods {
			if ip == mp || strings.HasPrefix(ip, mp+"/") {
				return nil, fmt.Errorf("no non-test Go files for import %q", ip)
			}
		}
		pkg, err := l.std.Import(ip)
		if err == nil {
			l.pkgs[ip] = pkg
		}
		return pkg, err
	}
	var files []*ast.File
	for _, name := range l.files[dir] {
		src, err := fs.ReadFile(l.fsys, name)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	pkg, err := (&types.Config{Importer: l}).Check(ip, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[ip] = pkg
	l.infos = append(l.infos, info)
	return pkg, nil
}

// uses returns every object some non-test code uses: named (a selected
// method or field is a Uses entry too, at its declaration even when
// promoted), or reached through an interface as the package doc describes.
// Objects are their generic origins.
func (l *loader) uses() map[types.Object]bool {
	used := map[types.Object]bool{}
	// calls maps an interface to the method names called through it; ""
	// stands for all of them.
	calls := map[*types.Interface]map[string]bool{}
	call := func(it *types.Interface, name string) {
		if calls[it] == nil {
			calls[it] = map[string]bool{}
		}
		calls[it][name] = true
	}
	var concrete []types.Type // *T for every named non-interface type
	addConcrete := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && !types.IsInterface(n) && n.TypeParams().Len() == n.TypeArgs().Len() {
			concrete = append(concrete, types.NewPointer(n))
		}
	}
	for _, info := range l.infos {
		for _, obj := range info.Uses {
			used[origin(obj)] = true
		}
		for _, sel := range info.Selections {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if it, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok {
					call(it, fn.Name())
				}
			}
		}
		for _, inst := range info.Instances {
			addConcrete(inst.Type)
		}
	}
	for _, pkg := range l.pkgs {
		_, repo := l.dirs[pkg.Path()]
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				if !repo && tn.Exported() {
					call(it, "")
				}
				continue
			}
			if repo {
				addConcrete(tn.Type())
			}
		}
	}
	for it, names := range calls {
		if it.NumMethods() == 0 {
			continue
		}
		for _, t := range concrete {
			if !types.Implements(t, it) {
				continue
			}
			ms := types.NewMethodSet(t)
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if !names[""] && !names[m.Name()] {
					continue
				}
				if s := ms.Lookup(m.Pkg(), m.Name()); s != nil {
					used[origin(s.Obj())] = true
				}
			}
		}
	}
	return used
}

// origin maps a method or field of an instantiated generic type, or an
// instantiated generic func, to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
