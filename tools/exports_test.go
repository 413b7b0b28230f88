package tools

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
	"strings"
	"testing"
)

// The export check keeps the module's API to what its programs call.
// Every exported function, method, type, const and var of internal/...
// and of the root package is classified by its best caller: a program
// (any non-test file of cmd/, examples/, tools/, internal/, the facade
// or a caller module such as campaignbench), other packages' tests
// only, its own package's tests only, or nothing. Anything short of a
// program caller fails unless testdata/exports_allow.txt lists it with
// a reason; a listed name that gained a program caller or no longer
// exists fails too, so the list cannot go stale.
//
// The root package is the public API, so its own tests and Examples
// count as its callers. A named type counts as called wherever a called
// name's signature, type or fields need it; a declaration's references
// to itself do not count. A method also counts as called when its
// receiver satisfies, with that method, an interface the program uses:
// one its code names (type constraints included), one of the standard
// library it imports, or one of the protocols the standard library
// asserts without naming (Unwrap, Is, As).
//
// The field rule covers the struct fields of the same packages'
// package-level types, embedded fields aside, and shares the allowlist,
// keyed like methods ("internal/dnsserver.Server.memo"). A field fails
// when no program needs it: an exported field of a type program code
// builds (a composite literal or new) that no program code writes, or
// any field program code writes and never reads. Writes are keyed and positional literal elements,
// assignments, ++/-- and &x.F; the last counts as a read too, since the
// pointer may be read through. A sync/atomic field's Add, Store, Swap,
// CompareAndSwap, And and Or are writes and its other methods reads; any
// other use of a field is a read. Tagged fields, and the fields of types
// program code hands to encoding/json or fmt or that a tagged field
// holds, count as written and read; so do the fields of a map key or of
// an operand of == or !=.

// TestExports runs the check over this module with campaignbench as a
// caller module.
func TestExports(t *testing.T) {
	found, err := checkExports("..", "../campaignbench")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist("testdata/exports_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	if problems := exportProblems(found, allow); len(problems) > 0 {
		t.Errorf("%d export problems (delete the name, move it into a _test.go file, or allowlist cross-package test support in testdata/exports_allow.txt):\n%s",
			len(problems), strings.Join(problems, "\n"))
	}
}

// TestExportsFixture pins the classification on a two-module fixture:
// of an unused export, an export only its own tests call, a method
// reached only through an interface and an export only a second module
// calls, exactly the first two are flagged; of a config field only tests
// set, an atomic counter only tests Load, a tagged field and a field set
// through &x.F, exactly the first two are.
func TestExportsFixture(t *testing.T) {
	found, err := checkExports("testdata/exportsfix", "testdata/exportsfix/second")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]callerClass{}
	for _, f := range found {
		if f.class != programCaller {
			got[f.key] = f.class
		}
	}
	want := map[string]callerClass{
		"internal/lib.Unused":          noCaller,
		"internal/lib.OwnTestOnly":     ownTests,
		"internal/lib.Config.TestOnly": unsetField,
		"internal/lib.Counter.calls":   unreadField,
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("flagged %v, want %v", got, want)
	}

	// An allowlist entry is stale once its name has a program caller or
	// is gone; listing a flagged name silences it.
	allow := map[string]string{
		"internal/lib.Unused":     "kept on purpose",
		"internal/lib.SecondOnly": "called by the second module",
		"internal/lib.Gone":       "deleted since",
	}
	problems := exportProblems(found, allow)
	wantProblems := []string{
		"internal/lib.Config.TestOnly: set by no program (internal/lib/lib.go:",
		"internal/lib.Counter.calls: written by the program, read by no program (internal/lib/lib.go:",
		"internal/lib.OwnTestOnly: called by its own package's tests only (internal/lib/lib.go:",
		"stale allowlist entry internal/lib.Gone: no such export",
		"stale allowlist entry internal/lib.SecondOnly: has a program caller",
	}
	if len(problems) != len(wantProblems) {
		t.Fatalf("problems:\n%s", strings.Join(problems, "\n"))
	}
	for i, p := range problems {
		if !strings.HasPrefix(p, wantProblems[i]) {
			t.Errorf("problem %d = %q, want prefix %q", i, p, wantProblems[i])
		}
	}
}

// callerClass ranks an export by its best caller.
type callerClass int

const (
	noCaller callerClass = iota
	ownTests
	otherTests
	programCaller
	unsetField  // an exported field of a type the program builds; no program writes it
	unreadField // a field the program writes and never reads
)

func (c callerClass) String() string {
	return [...]string{"no caller", "called by its own package's tests only",
		"called by other packages' tests only", "called by a program",
		"set by no program", "written by the program, read by no program"}[c]
}

// exportFinding is one classified export. key is the import path
// relative to the module (the module path for the root package), a dot,
// and the name: "internal/obs.Snapshot.Diff".
type exportFinding struct {
	key   string
	class callerClass
	pos   token.Position
	tests []string // packages whose tests call it, for otherTests
}

// exportProblems lists, sorted, every finding short of a program caller
// that allow does not name and every stale allow entry.
func exportProblems(found []exportFinding, allow map[string]string) []string {
	var problems []string
	seen := map[string]bool{}
	for _, f := range found {
		seen[f.key] = true
		_, listed := allow[f.key]
		switch {
		case f.class == programCaller && listed:
			problems = append(problems, fmt.Sprintf("stale allowlist entry %s: has a program caller", f.key))
		case f.class != programCaller && !listed:
			p := fmt.Sprintf("%s: %v (%s:%d)", f.key, f.class, f.pos.Filename, f.pos.Line)
			if len(f.tests) > 0 {
				p += " from " + strings.Join(f.tests, ", ")
			}
			problems = append(problems, p)
		}
	}
	for key := range allow {
		if !seen[key] {
			problems = append(problems, fmt.Sprintf("stale allowlist entry %s: no such export", key))
		}
	}
	sort.Strings(problems)
	return problems
}

// readAllowlist reads "name reason" lines; blank lines and #-comments
// are skipped, and every name needs a reason.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, name)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, name)
		}
		allow[name] = strings.TrimSpace(reason)
	}
	return allow, sc.Err()
}

// listedPackage is the part of `go list -json` the check reads.
type listedPackage struct {
	ImportPath, Dir, Export   string
	GoFiles, TestGoFiles      []string
	XTestGoFiles              []string
	TestImports, XTestImports []string
	Module                    *struct{ Path string }
	Error                     *struct{ Err string }
}

func goList(dir string, args ...string) ([]listedPackage, error) {
	args = append([]string{"list", "-e", "-json=ImportPath,Dir,Export,GoFiles,TestGoFiles,XTestGoFiles,TestImports,XTestImports,Module,Error"}, args...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list in %s: %s", dir, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
}

// checkUnit is one type-checked set of files: a package with its
// in-package tests, or an external _test package. owner is the import
// path of the package it belongs to.
type checkUnit struct {
	owner string
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// loadModule type-checks every package of the module at dir, with its
// tests, from source; imports come from the compiler's export data.
func loadModule(fset *token.FileSet, dir string) (modPath string, units []*checkUnit, err error) {
	own, err := goList(dir, "./...")
	if err != nil {
		return "", nil, err
	}
	patterns := []string{"./..."}
	for _, p := range own {
		patterns = append(patterns, p.TestImports...)
		patterns = append(patterns, p.XTestImports...)
	}
	all, err := goList(dir, append([]string{"-deps", "-export"}, patterns...)...)
	if err != nil {
		return "", nil, err
	}
	exports := map[string]string{}
	for _, p := range all {
		exports[p.ImportPath] = p.Export
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	for _, p := range own {
		modPath = p.Module.Path
		for _, set := range []struct {
			path  string
			files []string
		}{
			{p.ImportPath, append(p.GoFiles, p.TestGoFiles...)},
			{p.ImportPath + "_test", p.XTestGoFiles},
		} {
			if len(set.files) == 0 {
				continue
			}
			u, err := checkFiles(fset, imp, p.ImportPath, set.path, p.Dir, set.files)
			if err != nil {
				return "", nil, err
			}
			units = append(units, u)
		}
	}
	return modPath, units, nil
}

func checkFiles(fset *token.FileSet, imp types.Importer, owner, path, dir string, names []string) (*checkUnit, error) {
	u := &checkUnit{owner: owner, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		u.files = append(u.files, f)
	}
	// A package's in-package tests may import a package that imports it
	// back; that package's export data then carries a second copy of the
	// package under test, and the checker reports the two copies' types
	// as mismatched. Names resolve all the same, so only an unresolved
	// import is an error here.
	var importErr error
	conf := types.Config{Importer: imp, Error: func(err error) {
		if te, ok := err.(types.Error); ok && strings.Contains(te.Msg, "could not import") && importErr == nil {
			importErr = err
		}
	}}
	u.pkg, _ = conf.Check(path, fset, u.files, u.info)
	return u, importErr
}

// exportCheck accumulates the best caller of every export.
type exportCheck struct {
	modPath string
	decls   map[string]types.Object
	pos     map[string]token.Position
	best    map[string]callerClass
	tests   map[string]map[string]bool    // key -> packages whose tests call it
	ifaces  map[string][]*types.Interface // program interfaces by method name
	seen    map[*types.Interface]bool
	fields  map[string]*fieldUse // struct fields by key
	built   map[string]bool      // package-level types program code builds
	handed  map[string]bool      // types handed to encoding/json or fmt
	// serialized are the types of tagged fields: an encoder that reads
	// the tags reads these types' fields too.
	serialized []types.Type
}

// fieldUse is what program code does with one struct field.
type fieldUse struct {
	owner         string // the key of the type declaring it
	exported      bool
	pos           token.Position
	written, read bool
}

// checkExports classifies the exports of the module at root; callers
// are further modules whose packages count as callers.
func checkExports(root string, callers ...string) ([]exportFinding, error) {
	fset := token.NewFileSet()
	modPath, units, err := loadModule(fset, root)
	if err != nil {
		return nil, err
	}
	for _, dir := range callers {
		_, more, err := loadModule(fset, dir)
		if err != nil {
			return nil, err
		}
		units = append(units, more...)
	}
	c := &exportCheck{
		modPath: modPath,
		decls:   map[string]types.Object{},
		pos:     map[string]token.Position{},
		best:    map[string]callerClass{},
		tests:   map[string]map[string]bool{},
		ifaces:  map[string][]*types.Interface{},
		seen:    map[*types.Interface]bool{},
		fields:  map[string]*fieldUse{},
		built:   map[string]bool{},
		handed:  map[string]bool{},
	}
	rootAbs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	for _, u := range units {
		if u.pkg.Path() == u.owner && c.checked(u.owner) {
			c.declare(fset, u, rootAbs)
		}
	}
	for _, u := range units {
		for _, f := range u.files {
			c.scan(fset, u, f)
		}
	}
	c.addProtocols()
	c.markInterfaceMethods()
	for _, t := range c.serialized {
		c.handOver(t)
	}

	var found []exportFinding
	for key := range c.decls {
		f := exportFinding{key: key, class: c.best[key], pos: c.pos[key]}
		if f.class == otherTests {
			for p := range c.tests[key] {
				f.tests = append(f.tests, strings.TrimPrefix(p, modPath+"/"))
			}
			sort.Strings(f.tests)
		}
		found = append(found, f)
	}
	for key, use := range c.fields {
		class := programCaller
		switch {
		case use.exported && c.built[use.owner] && !use.written:
			class = unsetField
		case use.written && !use.read:
			class = unreadField
		}
		found = append(found, exportFinding{key: key, class: class, pos: use.pos})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].key < found[j].key })
	return found, nil
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.File(f.Pos()).Name(), "_test.go")
}

// checked reports whether the exports of the package at path are
// classified: the root package and everything under internal/.
func (c *exportCheck) checked(path string) bool {
	return path == c.modPath || strings.HasPrefix(path, c.modPath+"/internal/")
}

// key names a package-level object or a method of a package-level named
// type; ok is false for anything else and for unchecked packages.
func (c *exportCheck) key(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() || !c.checked(obj.Pkg().Path()) {
		return "", false
	}
	prefix := strings.TrimPrefix(obj.Pkg().Path(), c.modPath+"/") + "."
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named := recvNamed(recv.Type())
			if named == nil || types.IsInterface(named) {
				return "", false
			}
			return prefix + named.Obj().Name() + "." + fn.Name(), true
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return prefix + obj.Name(), true
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	if named != nil {
		named = named.Origin()
	}
	return named
}

// declare records the exports and the struct fields u's non-test files
// define.
func (c *exportCheck) declare(fset *token.FileSet, u *checkUnit, root string) {
	position := func(p token.Pos) (token.Position, bool) {
		pos := fset.Position(p)
		if strings.HasSuffix(pos.Filename, "_test.go") {
			return pos, false
		}
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = filepath.ToSlash(rel)
		}
		return pos, true
	}
	for id, obj := range u.info.Defs {
		if key, ok := c.key(obj); ok {
			if pos, ok := position(id.Pos()); ok {
				c.decls[key], c.pos[key] = obj, pos
			}
		}
	}
	for _, name := range u.pkg.Scope().Names() {
		tn, ok := u.pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		owner, named := c.typeKey(tn.Type())
		if !ok || !named {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			pos, program := position(f.Pos())
			if !program || f.Embedded() {
				continue
			}
			tagged := st.Tag(i) != ""
			c.fields[owner+"."+f.Name()] = &fieldUse{owner: owner, exported: f.Exported(), pos: pos, written: tagged, read: tagged}
			if tagged {
				c.serialized = append(c.serialized, f.Type())
			}
		}
	}
}

// typeKey names a package-level named type of a checked package, the
// same way key names an export.
func (c *exportCheck) typeKey(t types.Type) (string, bool) {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Origin().Obj()
	if obj.Pkg() == nil || !c.checked(obj.Pkg().Path()) || obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return strings.TrimPrefix(obj.Pkg().Path(), c.modPath+"/") + "." + obj.Name(), true
}

// fieldKey names the field sel selects, following embedded fields from
// the receiver to the struct that declares it.
func (c *exportCheck) fieldKey(sel *types.Selection) (string, bool) {
	t := sel.Recv()
	for i, x := range sel.Index() {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return "", false
		}
		if i == len(sel.Index())-1 {
			owner, ok := c.typeKey(t)
			return owner + "." + st.Field(x).Name(), ok
		}
		t = st.Field(x).Type()
	}
	return "", false
}

// scanFields records what the program file f does with struct fields.
func (c *exportCheck) scanFields(u *checkUnit, f *ast.File) {
	mark := func(key string, write, read bool) {
		if use := c.fields[key]; use != nil {
			use.written = use.written || write
			use.read = use.read || read
		}
	}
	// First pass: the selectors whose context makes them writes.
	assigned := map[ast.Expr]bool{}
	addressed := map[ast.Expr]bool{}
	atomicOp := map[ast.Expr]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				assigned[ast.Unparen(e)] = true
			}
		case *ast.IncDecStmt:
			assigned[ast.Unparen(n.X)] = true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				addressed[ast.Unparen(n.X)] = true
			}
		case *ast.CallExpr:
			m, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				break
			}
			if sel := u.info.Selections[m]; sel != nil && sel.Kind() == types.MethodVal {
				if pkg := sel.Obj().Pkg(); pkg != nil && pkg.Path() == "sync/atomic" {
					atomicOp[ast.Unparen(m.X)] = m.Sel.Name
				}
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel := u.info.Selections[n]
			if sel == nil || sel.Kind() != types.FieldVal {
				break
			}
			key, ok := c.fieldKey(sel)
			if !ok {
				break
			}
			if op, ok := atomicOp[n]; ok {
				switch op {
				case "Add", "Store", "Swap", "CompareAndSwap", "And", "Or":
					mark(key, true, false)
				default:
					mark(key, false, true)
				}
				break
			}
			mark(key, assigned[n] || addressed[n], !assigned[n])
		case *ast.CompositeLit:
			t := u.info.TypeOf(n)
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			owner, named := c.typeKey(t)
			st, ok := t.Underlying().(*types.Struct)
			if !named || !ok {
				break
			}
			c.built[owner] = true
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					mark(owner+"."+kv.Key.(*ast.Ident).Name, true, false)
				} else {
					mark(owner+"."+st.Field(i).Name(), true, false)
				}
			}
		case *ast.IndexExpr:
			if m, ok := u.info.TypeOf(n.X).Underlying().(*types.Map); ok {
				c.compared(m.Key())
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				c.compared(u.info.TypeOf(n.X))
			}
		case *ast.CallExpr:
			var callee types.Object
			switch fn := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				callee = u.info.Uses[fn]
			case *ast.SelectorExpr:
				callee = u.info.Uses[fn.Sel]
			}
			if b, ok := callee.(*types.Builtin); ok && b.Name() == "new" && len(n.Args) == 1 {
				if owner, ok := c.typeKey(u.info.TypeOf(n.Args[0])); ok {
					c.built[owner] = true
				}
			}
			if fn, ok := callee.(*types.Func); ok && fn.Pkg() != nil && (fn.Pkg().Path() == "fmt" || fn.Pkg().Path() == "encoding/json") {
				for _, a := range n.Args {
					c.handOver(u.info.TypeOf(a))
				}
			}
		}
		return true
	})
}

// compared marks the fields of a struct type t read: a map key or an
// operand of == or != is read whole.
func (c *exportCheck) compared(t types.Type) {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	owner, named := c.typeKey(t)
	for i := 0; i < st.NumFields(); i++ {
		if use := c.fields[owner+"."+st.Field(i).Name()]; named && use != nil {
			use.read = true
		}
		c.compared(st.Field(i).Type())
	}
}

// handOver marks every field reachable from t written and read: a type
// handed to encoding/json or fmt has its fields read or set by
// reflection.
func (c *exportCheck) handOver(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		owner, ok := c.typeKey(t)
		if !ok || c.handed[owner] {
			return
		}
		c.handed[owner] = true
		st, isStruct := t.Underlying().(*types.Struct)
		if !isStruct {
			c.handOver(t.Underlying())
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			if use := c.fields[owner+"."+st.Field(i).Name()]; use != nil {
				use.written, use.read = true, true
			}
			c.handOver(st.Field(i).Type())
		}
	case *types.Pointer:
		c.handOver(t.Elem())
	case *types.Slice:
		c.handOver(t.Elem())
	case *types.Array:
		c.handOver(t.Elem())
	case *types.Map:
		c.handOver(t.Key())
		c.handOver(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			c.handOver(t.Field(i).Type())
		}
	}
}

// scan records every use in f. A declaration's references to itself and
// a method's receiver type do not count.
func (c *exportCheck) scan(fset *token.FileSet, u *checkUnit, f *ast.File) {
	test := isTestFile(fset, f)
	for _, d := range f.Decls {
		self := map[string]bool{}
		skip := map[*ast.Ident]bool{}
		switch d := d.(type) {
		case *ast.FuncDecl:
			c.addSelf(self, u.info.Defs[d.Name])
			if d.Recv != nil {
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						skip[id] = true
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					c.addSelf(self, u.info.Defs[s.Name])
				case *ast.ValueSpec:
					for _, id := range s.Names {
						c.addSelf(self, u.info.Defs[id])
					}
				}
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := u.info.Uses[n]; obj != nil && !skip[n] {
					if key, ok := c.key(obj); !ok || !self[key] {
						c.use(obj, u.owner, test)
					}
				}
			case *ast.SelectorExpr:
				if sel := u.info.Selections[n]; sel != nil {
					if named := recvNamed(sel.Recv()); named != nil {
						c.use(named.Obj(), u.owner, test)
					}
				}
			}
			if e, ok := n.(ast.Expr); ok && !test {
				if tv, ok := u.info.Types[e]; ok && tv.Type != nil {
					c.addInterface(tv.Type)
				}
			}
			return true
		})
	}
	if !test {
		c.scanFields(u, f)
		for _, p := range u.pkg.Imports() {
			if p.Path() == c.modPath || strings.HasPrefix(p.Path(), c.modPath+"/") {
				continue
			}
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					c.addInterface(tn.Type())
				}
			}
		}
	}
}

func (c *exportCheck) addSelf(self map[string]bool, obj types.Object) {
	if key, ok := c.key(obj); ok {
		self[key] = true
	}
}

// use records obj as called from a file of the package owner; whatever
// obj needs (the named types of its signature, type or fields) is then
// called the same way.
func (c *exportCheck) use(obj types.Object, owner string, test bool) {
	key, ok := c.key(obj)
	if !ok {
		return
	}
	class := programCaller
	switch {
	case !test, owner == c.modPath && obj.Pkg().Path() == c.modPath:
	case owner == obj.Pkg().Path():
		class = ownTests
	default:
		class = otherTests
		if c.tests[key] == nil {
			c.tests[key] = map[string]bool{}
		}
		c.tests[key][owner] = true
	}
	if c.best[key] >= class {
		return
	}
	c.best[key] = class
	t := obj.Type()
	if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
		t = t.Underlying()
	}
	c.walk(t, owner, test)
}

func (c *exportCheck) walk(t types.Type, owner string, test bool) {
	switch t := t.(type) {
	case *types.Named:
		c.use(t.Origin().Obj(), owner, test)
		for i := 0; i < t.TypeArgs().Len(); i++ {
			c.walk(t.TypeArgs().At(i), owner, test)
		}
	case *types.Alias:
		c.walk(types.Unalias(t), owner, test)
	case *types.Pointer:
		c.walk(t.Elem(), owner, test)
	case *types.Slice:
		c.walk(t.Elem(), owner, test)
	case *types.Array:
		c.walk(t.Elem(), owner, test)
	case *types.Chan:
		c.walk(t.Elem(), owner, test)
	case *types.Map:
		c.walk(t.Key(), owner, test)
		c.walk(t.Elem(), owner, test)
	case *types.Signature:
		c.walk(t.Params(), owner, test)
		c.walk(t.Results(), owner, test)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			c.walk(t.At(i).Type(), owner, test)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			c.walk(t.Field(i).Type(), owner, test)
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			c.walk(t.Method(i).Type(), owner, test)
		}
	}
}

// addInterface indexes t by method name if it is an interface the
// program can call methods through.
func (c *exportCheck) addInterface(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || c.seen[it] {
		return
	}
	c.seen[it] = true
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		c.ifaces[name] = append(c.ifaces[name], it)
	}
}

// addProtocols adds the interfaces the standard library asserts without
// naming them (errors.Unwrap/Is/As), and error itself.
func (c *exportCheck) addProtocols() {
	const src = `package protocols
type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "protocols.go", src, 0)
	if err != nil {
		panic(err)
	}
	pkg, err := new(types.Config).Check("protocols", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	for _, name := range pkg.Scope().Names() {
		c.addInterface(pkg.Scope().Lookup(name).Type())
	}
	c.addInterface(types.Universe.Lookup("error").Type())
}

// markInterfaceMethods calls every exported method whose receiver
// satisfies, with it, a program interface. Signatures compare as the
// text of their parameter and result types, since a package checked
// from source and the same package read from export data are distinct
// to go/types.
func (c *exportCheck) markInterfaceMethods() {
	qual := func(p *types.Package) string { return p.Path() }
	sig := func(t types.Type) string {
		s := t.(*types.Signature)
		var b strings.Builder
		for _, tup := range []*types.Tuple{s.Params(), s.Results()} {
			for i := 0; i < tup.Len(); i++ {
				b.WriteString(types.TypeString(tup.At(i).Type(), qual) + ",")
			}
			b.WriteString(";")
		}
		if s.Variadic() {
			b.WriteString("...")
		}
		return b.String()
	}
	methods := map[*types.Named]map[string]string{}
	for _, obj := range c.decls {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Type().(*types.Signature).Recv() == nil {
			continue
		}
		named := recvNamed(fn.Type().(*types.Signature).Recv().Type())
		if methods[named] == nil {
			ms := types.NewMethodSet(types.NewPointer(named))
			methods[named] = map[string]string{}
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj()
				methods[named][m.Name()] = sig(m.Type())
			}
		}
		for _, it := range c.ifaces[fn.Name()] {
			satisfies := true
			for i := 0; i < it.NumMethods() && satisfies; i++ {
				m := it.Method(i)
				satisfies = methods[named][m.Name()] == sig(m.Type())
			}
			if satisfies {
				c.use(fn, "", false)
				break
			}
		}
	}
}
