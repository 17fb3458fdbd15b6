package lint

import (
	"go/token"
	"go/types"
)

// stdlibDispatched names the methods the standard library calls through
// its own interfaces (fmt.Stringer, error, http.Handler, json.Marshaler,
// json.Unmarshaler). The call graph models module interfaces only, so
// these are roots rather than dead code.
var stdlibDispatched = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// deadFunc is one production function no binary reaches.
type deadFunc struct {
	node  *Node
	lines int
}

// unreached returns the module functions that no program entry point
// reaches, in the graph's deterministic order. The roots are main of
// every package main, every package init (declared or synthetic
// var-initializer), and the stdlib-dispatched methods above.
func unreached(fset *token.FileSet, pkgs []*Package) []deadFunc {
	g := buildGraph(fset, pkgs)
	var roots []*Node
	for _, n := range g.Nodes {
		if n.Pkg == nil {
			continue // out-of-module leaf
		}
		if n.Fn == nil {
			roots = append(roots, n) // synthetic var-initializer node
			continue
		}
		sig, _ := n.Fn.Type().(*types.Signature)
		method := sig != nil && sig.Recv() != nil
		switch {
		case !method && n.Fn.Name() == "init",
			!method && n.Fn.Name() == "main" && n.Pkg.Types.Name() == "main",
			method && stdlibDispatched[n.Fn.Name()]:
			roots = append(roots, n)
		}
	}
	seen := g.Reachable(roots)
	var dead []deadFunc
	for _, n := range g.Nodes {
		if n.Decl == nil || seen[n] {
			continue
		}
		start := fset.Position(n.Decl.Pos()).Line
		end := fset.Position(n.Decl.End()).Line
		dead = append(dead, deadFunc{node: n, lines: end - start + 1})
	}
	return dead
}
