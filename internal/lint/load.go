package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// File is one parsed source file of a package. Test files participate in
// the syntactic checks (imports, waivers) but are excluded from the
// type-checked unit, so external test packages and test-only imports
// never create artificial import cycles.
type File struct {
	Name string // absolute path on disk
	AST  *ast.File
	Test bool // *_test.go
}

// Package is one loaded, parsed, and (for its non-test files)
// type-checked package.
type Package struct {
	Path       string // import path, e.g. "snic/internal/sim"
	Dir        string
	Files      []*File
	Types      *types.Package // nil when the package has only test files
	TypesInfo  *types.Info    // nil when Types is nil
	TypeErrors []error        // type-check problems (tolerated: build gates them)
}

// Loader discovers, parses, and type-checks packages. Imports beginning
// with Module resolve against Roots in order (the lint tests put a
// fixture tree first and the real module second); everything else is
// delegated to the compiler's stdlib importer. The loader is the whole
// reason this framework needs no golang.org/x/tools: the module layout
// is plain enough — module path + relative directory — that go/parser
// and go/types cover it.
type Loader struct {
	Fset   *token.FileSet
	Module string   // module path, e.g. "snic"
	Roots  []string // directories searched in order for module-relative paths

	stdlib  types.Importer
	pkgs    map[string]*Package // memoized by import path
	loading map[string]bool     // cycle guard
}

// NewLoader returns a loader for the module rooted at the given
// directories (searched in order).
func NewLoader(module string, roots ...string) *Loader {
	return &Loader{
		Fset:    token.NewFileSet(),
		Module:  module,
		Roots:   roots,
		stdlib:  importer.Default(),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// FindModuleRoot walks upward from dir to the directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Discover walks root and returns the import paths of every package
// beneath it, in sorted order. Directories named testdata, hidden
// directories, and _-prefixed directories are skipped, matching the go
// tool's convention.
func (l *Loader) Discover(root string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	base, err := l.rootFor(root)
	if err != nil {
		return nil, err
	}
	var paths []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(base, filepath.Dir(path))
		if err != nil {
			return err
		}
		ip := l.Module
		if rel != "." {
			ip = l.Module + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, ip)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	uniq := paths[:0]
	for i, p := range paths {
		if i == 0 || p != paths[i-1] {
			uniq = append(uniq, p)
		}
	}
	return uniq, nil
}

// rootFor returns the configured root that contains dir, so Discover can
// compute import paths relative to the right tree.
func (l *Loader) rootFor(dir string) (string, error) {
	for _, r := range l.Roots {
		abs, err := filepath.Abs(r)
		if err != nil {
			return "", err
		}
		if dir == abs || strings.HasPrefix(dir+string(filepath.Separator), abs+string(filepath.Separator)) {
			return abs, nil
		}
	}
	return "", fmt.Errorf("lint: %s is outside the loader roots", dir)
}

// Load parses and type-checks the package with the given import path.
// Results are memoized, so loading many packages shares their common
// dependencies.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Dir: dir}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		fname := filepath.Join(dir, e.Name())
		astf, err := parser.ParseFile(l.Fset, fname, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		pkg.Files = append(pkg.Files, &File{
			Name: fname,
			AST:  astf,
			Test: strings.HasSuffix(e.Name(), "_test.go"),
		})
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	l.typeCheck(pkg)
	l.pkgs[path] = pkg
	return pkg, nil
}

// dirFor maps a module-relative import path to the first root that
// provides it.
func (l *Loader) dirFor(path string) (string, error) {
	rel := ""
	switch {
	case path == l.Module:
	case strings.HasPrefix(path, l.Module+"/"):
		rel = strings.TrimPrefix(path, l.Module+"/")
	default:
		return "", fmt.Errorf("lint: %s is not in module %s", path, l.Module)
	}
	for _, root := range l.Roots {
		dir := filepath.Join(root, filepath.FromSlash(rel))
		if entries, err := os.ReadDir(dir); err == nil {
			for _, e := range entries {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
					return dir, nil
				}
			}
		}
	}
	return "", fmt.Errorf("lint: no package %s under any root", path)
}

// typeCheck runs go/types over the package's non-test files. Errors are
// accumulated, not fatal: fixtures deliberately import unresolvable
// paths, and the real build (go build ./...) is the gate for type
// correctness. Checks that need types degrade to syntax when Info is
// absent.
func (l *Loader) typeCheck(pkg *Package) {
	var files []*ast.File
	for _, f := range pkg.Files {
		if !f.Test {
			files = append(files, f.AST)
		}
	}
	if len(files) == 0 {
		return
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	cfg := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) { return l.doImport(path) }),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := cfg.Check(pkg.Path, l.Fset, files, info)
	pkg.Types = tpkg
	pkg.TypesInfo = info
}

// doImport resolves an import for the type checker: module-internal
// paths recurse through Load, "unsafe" maps to types.Unsafe (so the
// stdlib-only check, not a resolution failure, reports it), and
// everything else goes to the stdlib importer.
func (l *Loader) doImport(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: %s has no non-test files", path)
		}
		return pkg.Types, nil
	}
	return l.stdlib.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// LoadPatterns expands go-style package patterns ("./...", "./internal/...",
// "./cmd/sniclint") relative to the first root and loads every match.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var paths []string
	for _, pat := range patterns {
		switch {
		case pat == "all" || pat == "./..." || pat == "...":
			ps, err := l.Discover(l.Roots[0])
			if err != nil {
				return nil, err
			}
			paths = append(paths, ps...)
		case strings.HasSuffix(pat, "/..."):
			dir := filepath.Join(l.Roots[0], filepath.FromSlash(strings.TrimSuffix(pat, "/...")))
			ps, err := l.Discover(dir)
			if err != nil {
				return nil, err
			}
			paths = append(paths, ps...)
		default:
			rel := filepath.ToSlash(filepath.Clean(pat))
			rel = strings.TrimPrefix(rel, "./")
			ip := l.Module
			if rel != "." {
				ip = l.Module + "/" + rel
			}
			paths = append(paths, ip)
		}
	}
	sort.Strings(paths)
	var pkgs []*Package
	seen := make(map[string]bool)
	for _, p := range paths {
		if seen[p] {
			continue
		}
		seen[p] = true
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
