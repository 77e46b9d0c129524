package vcprof

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vcprof/internal/service"
)

// The architecture contracts: structural facts about the tree that the
// reproduction's numbers rest on (DESIGN.md §4 and §8), checked on the
// parsed source of every non-test file. Each contract also carries
// planted violations — source parsed under a made-up path, over the
// tree — that its check must flag, so no check passes for want of
// anything to look at.

// moduleGoFiles returns the module's .go files, slash-separated and
// relative to its root: the _test.go files when tests is set, the
// others when not. Like the go command, it skips .git and testdata.
func moduleGoFiles(t *testing.T, tests bool) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata"):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(p, ".go") && strings.HasSuffix(p, "_test.go") == tests:
			paths = append(paths, filepath.ToSlash(p))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// goFile is one parsed file, named by its slash-separated path from the
// module root.
type goFile struct {
	path string
	f    *ast.File
}

// tree is a set of parsed files sharing one FileSet.
type tree struct {
	fset  *token.FileSet
	files []goFile
}

func (tr *tree) parse(name string, src any) error {
	f, err := parser.ParseFile(tr.fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	tr.files = append(tr.files, goFile{name, f})
	return nil
}

// with returns the tree with src parsed as name in place of the file of
// that name, if there is one.
func (tr *tree) with(name, src string) (*tree, error) {
	out := &tree{fset: tr.fset}
	for _, g := range tr.files {
		if g.path != name {
			out.files = append(out.files, g)
		}
	}
	return out, out.parse(name, src)
}

// at formats a finding at n's position.
func (tr *tree) at(n ast.Node, format string, args ...any) string {
	p := tr.fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...))
}

// inDir reports whether any directory on p's path is named dir, as
// grep --exclude-dir matches.
func inDir(p, dir string) bool {
	return slices.Contains(strings.Split(path.Dir(p), "/"), dir)
}

// importName is the name f refers to the package at importPath by, or
// "" when f does not import it.
func importName(f *ast.File, importPath string) string {
	for _, imp := range f.Imports {
		if v, _ := strconv.Unquote(imp.Path.Value); v == importPath {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path.Base(v)
		}
	}
	return ""
}

// isQualified reports whether e names the exported identifier sel of the
// package at importPath, as f imports it.
func isQualified(f *ast.File, e ast.Expr, importPath, sel string) bool {
	s, ok := e.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != sel {
		return false
	}
	x, ok := s.X.(*ast.Ident)
	return ok && x.Name == importName(f, importPath)
}

// name is the identifier an expression ends in: x for x and a.b.x.
func name(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// stringLit is the value of e when e is a string literal.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// calls runs fn on every call in the files for which skip is false.
func (tr *tree) calls(skip func(string) bool, fn func(c *ast.CallExpr)) {
	for _, g := range tr.files {
		if skip(g.path) {
			continue
		}
		ast.Inspect(g.f, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				fn(c)
			}
			return true
		})
	}
}

const (
	cachePkg   = "vcprof/internal/uarch/cache"
	machinePkg = "vcprof/internal/uarch/machine"
	tracePkg   = "vcprof/internal/trace"
)

var evictLocked = regexp.MustCompile(`^[eE]vict[A-Za-z]*Locked$`)

// checkTable: internal/memo is the only place bounded-table policy is
// written (DESIGN.md §4). No other file imports container/list or
// declares an evict…Locked function.
func checkTable(tr *tree) (out []string) {
	for _, g := range tr.files {
		if inDir(g.path, "memo") {
			continue
		}
		for _, imp := range g.f.Imports {
			if v, _ := strconv.Unquote(imp.Path.Value); v == "container/list" {
				out = append(out, tr.at(imp, "imports container/list outside internal/memo"))
			}
		}
		for _, d := range g.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && evictLocked.MatchString(fd.Name.Name) {
				out = append(out, tr.at(fd, "declares %s outside internal/memo", fd.Name.Name))
			}
		}
	}
	return out
}

// checkMachine: the modeled machine is written down once, in
// internal/uarch/machine (DESIGN.md §4). Outside it and bench/ no file
// spells out a cache level's geometry in a cache.Config or machine.Cache
// literal, or names the machine's predictor "tage-8KB" (bpred's name
// table and the harness's ablation predictor list name predictors, not
// the machine). Outside the cache package and bench/ none builds the
// paper machine's hierarchy per cell with NewXeonHierarchy instead of
// borrowing one from the free list.
func checkMachine(tr *tree) (out []string) {
	for _, g := range tr.files {
		if inDir(g.path, "machine") || inDir(g.path, "bench") {
			continue
		}
		geometry := func(e ast.Expr) bool {
			if s, ok := e.(*ast.StarExpr); ok {
				e = s.X
			}
			return isQualified(g.f, e, cachePkg, "Config") || isQualified(g.f, e, machinePkg, "Cache")
		}
		sizes := func(lit *ast.CompositeLit) {
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok && name(kv.Key) == "SizeBytes" {
					out = append(out, tr.at(lit, "cache-level literal sets SizeBytes outside internal/uarch/machine"))
				}
			}
		}
		allowed := map[ast.Node]bool{}
		ast.Inspect(g.f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if geometry(lit.Type) {
				sizes(lit)
			}
			// The elements of a []cache.Config{{…}} elide their type.
			var elt ast.Expr
			switch t := lit.Type.(type) {
			case *ast.ArrayType:
				elt = t.Elt
			case *ast.MapType:
				elt = t.Value
			default:
				return true
			}
			a, ok := lit.Type.(*ast.ArrayType)
			list := ok && a.Len == nil && name(a.Elt) == "string" && g.path == "internal/harness/exp_ablation.go"
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if inner, ok := el.(*ast.CompositeLit); ok && inner.Type == nil && geometry(elt) {
					sizes(inner)
				}
				if list {
					allowed[el] = true
				}
			}
			return true
		})
		if g.path == "internal/uarch/bpred/monitor.go" {
			continue
		}
		ast.Inspect(g.f, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && !allowed[n] {
				if s, ok := stringLit(e); ok && s == "tage-8KB" {
					out = append(out, tr.at(n, `names the machine's predictor "tage-8KB" outside internal/uarch/machine`))
				}
			}
			return true
		})
	}
	tr.calls(func(p string) bool { return inDir(p, "cache") || inDir(p, "bench") }, func(c *ast.CallExpr) {
		if name(c.Fun) == "NewXeonHierarchy" {
			out = append(out, tr.at(c, "calls NewXeonHierarchy outside internal/uarch/cache: borrow a hierarchy from the free list"))
		}
	})
	return out
}

// checkRecorder: a recording is a trace.Tape written as the encode
// runs, and a window is a view of it that every reader reads in place
// (DESIGN.md §4). No file outside internal/trace and bench/ materialises
// a window (MicroOps is the per-op oracles' input) or, but for the
// branch lists internal/cbp scores, holds micro-ops in a slice;
// internal/trace has exactly one Read…, the only parser of trace bytes
// from outside; and internal/perf/record.go holds exactly one
// enc.Encode call — the recording one, run again only for a run that
// outgrew its tape — so neither a second copy of the window, a second
// file format nor a counting encode ahead of every recording can creep
// back.
func checkRecorder(tr *tree) (out []string) {
	tr.calls(func(p string) bool { return inDir(p, "trace") || inDir(p, "bench") }, func(c *ast.CallExpr) {
		if n := name(c.Fun); n == "MicroOps" || n == "Expand" {
			out = append(out, tr.at(c, "calls %s outside internal/trace: read the window in place", n))
		}
	})
	reads, encodes := 0, 0
	for _, g := range tr.files {
		if !inDir(g.path, "trace") && !inDir(g.path, "bench") && !inDir(g.path, "cbp") {
			ast.Inspect(g.f, func(n ast.Node) bool {
				if a, ok := n.(*ast.ArrayType); ok && a.Len == nil && isQualified(g.f, a.Elt, tracePkg, "MicroOp") {
					out = append(out, tr.at(a, "holds micro-ops in a []trace.MicroOp outside internal/trace"))
				}
				return true
			})
		}
		if path.Dir(g.path) == "internal/trace" {
			for _, d := range g.f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Read") {
					reads++
				}
			}
		}
		if g.path == "internal/perf/record.go" {
			ast.Inspect(g.f, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					if s, ok := c.Fun.(*ast.SelectorExpr); ok && s.Sel.Name == "Encode" && name(s.X) == "enc" {
						encodes++
					}
				}
				return true
			})
		}
	}
	if reads != 1 {
		out = append(out, fmt.Sprintf("internal/trace declares %d func Read…, want exactly one", reads))
	}
	if encodes != 1 {
		out = append(out, fmt.Sprintf("internal/perf/record.go calls enc.Encode %d times, want exactly once", encodes))
	}
	return out
}

// checkWait: a job's completion is pushed to whoever waits for it
// (DESIGN.md §8). Client.Drive is the submit helper plus one held
// request, so its body sleeps nowhere — the 429/reconnect pacing lives
// in submitAccepted, the guard against a server without ?wait= in
// awaitResult — and no file outside bench/ brings back a client-side
// status read, a GET of the status endpoint, or a doubling poll delay
// to loop on.
func checkWait(tr *tree) (out []string) {
	const client = "internal/service/client.go"
	drive := false
	for _, g := range tr.files {
		if inDir(g.path, "bench") {
			continue
		}
		for _, d := range g.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			recv := fd.Recv.List[0].Type
			_, pointer := recv.(*ast.StarExpr)
			if pointer {
				recv = recv.(*ast.StarExpr).X
			}
			if name(recv) != "Client" {
				continue
			}
			switch {
			case fd.Name.Name == "Status":
				out = append(out, tr.at(fd, "declares Client.Status: completion is pushed, not polled"))
			case fd.Name.Name == "Drive" && g.path == client && !pointer:
				drive = true
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && strings.Contains(id.Name, "Sleep") {
						out = append(out, tr.at(id, "Client.Drive names %s: its body sleeps nowhere", id.Name))
					}
					return true
				})
			}
		}
		ast.Inspect(g.f, func(n ast.Node) bool {
			if a, ok := n.(*ast.AssignStmt); ok && a.Tok == token.MUL_ASSIGN && len(a.Lhs) == 1 &&
				strings.Contains(strings.ToLower(name(a.Lhs[0])), "delay") {
				if v, ok := a.Rhs[0].(*ast.BasicLit); ok && v.Value == "2" {
					out = append(out, tr.at(a, "doubles %s: a poll loop's backoff", name(a.Lhs[0])))
				}
			}
			return true
		})
	}
	if !drive {
		out = append(out, fmt.Sprintf("func (c Client) Drive not found in %s", client))
	}
	tr.calls(func(p string) bool { return inDir(p, "bench") }, func(c *ast.CallExpr) {
		for i := 0; i+1 < len(c.Args); i++ {
			if name(c.Args[i]) != "MethodGet" {
				continue
			}
			ast.Inspect(c.Args[i+1], func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					if s, ok := stringLit(e); ok && strings.HasPrefix(s, "/v1/jobs/") {
						out = append(out, tr.at(c, "GETs the job status endpoint %q: wait on the result instead", s))
					}
				}
				return true
			})
		}
	})
	return out
}

// checkAPI: one API, two backends (DESIGN.md §8). The job and session
// routes a daemon and a gate both serve are registered by
// service.(*API).Mount alone, so no file outside internal/service
// mounts a pattern at or under one of service.SharedRoutes' paths.
func checkAPI(tr *tree) (out []string) {
	var shared [][]string
	for _, r := range service.SharedRoutes() {
		shared = append(shared, routeSegments(r))
	}
	tr.calls(func(p string) bool { return strings.HasPrefix(p, "internal/service/") }, func(c *ast.CallExpr) {
		if n := name(c.Fun); (n != "Handle" && n != "HandleFunc") || len(c.Args) == 0 {
			return
		}
		pattern, ok := stringLit(c.Args[0])
		if !ok {
			return
		}
		segs := routeSegments(pattern)
		for _, s := range shared {
			if len(segs) >= len(s) && slices.EqualFunc(s, segs[:len(s)], func(a, b string) bool {
				return a == b || strings.HasPrefix(a, "{")
			}) {
				out = append(out, tr.at(c, "mounts %q outside internal/service: the shared routes are API.Mount's", pattern))
				return
			}
		}
	})
	return out
}

// routeSegments splits a ServeMux pattern's path ("GET /v1/jobs/{id}"
// → "", "v1", "jobs", "{id}"), dropping its method and host.
func routeSegments(pattern string) []string {
	if i := strings.Index(pattern, "/"); i >= 0 {
		pattern = pattern[i:]
	}
	return strings.Split(pattern, "/")
}

// plant is a violation its contract's check must flag: src parsed as
// path, over the tree, yields a finding containing want.
type plant struct {
	path, src, want string
}

var contracts = []struct {
	name   string
	check  func(*tree) []string
	plants []plant
}{
	{"one-table", checkTable, []plant{
		{"internal/harness/lru.go", "package harness\nimport \"container/list\"\nvar order = list.New()\n",
			"internal/harness/lru.go:2: imports container/list"},
		{"internal/service/table.go", "package service\nfunc (s *Store) evictOldestLocked() {}\n",
			"internal/service/table.go:2: declares evictOldestLocked"},
	}},
	{"one-machine", checkMachine, []plant{
		{"internal/harness/geom.go", "package harness\nimport \"vcprof/internal/uarch/machine\"\nvar l1 = machine.Cache{\n\tSizeBytes: 1 << 15,\n}\n",
			"internal/harness/geom.go:3: cache-level literal sets SizeBytes"},
		{"internal/perf/geom.go", "package perf\nimport uc \"vcprof/internal/uarch/cache\"\nvar levels = []*uc.Config{\n\t{Assoc: 8, SizeBytes: 32 << 10},\n}\n",
			"internal/perf/geom.go:4: cache-level literal sets SizeBytes"},
		{"internal/perf/stat.go", "package perf\nvar predictor = \"tage-8KB\"\n",
			`internal/perf/stat.go:2: names the machine's predictor "tage-8KB"`},
		{"internal/harness/exp_ablation.go", "package harness\nfunc pick() string { return \"tage-8KB\" }\n",
			`internal/harness/exp_ablation.go:2: names the machine's predictor "tage-8KB"`},
		{"internal/harness/cell.go", "package harness\nimport \"vcprof/internal/uarch/cache\"\nvar h, _ = cache.NewXeonHierarchy()\n",
			"internal/harness/cell.go:3: calls NewXeonHierarchy"},
	}},
	{"one-recorder", checkRecorder, []plant{
		{"internal/uarch/pipeline/ops.go", "package pipeline\nimport \"vcprof/internal/trace\"\nfunc n(w trace.Window) int { return len(w.MicroOps()) }\n",
			"internal/uarch/pipeline/ops.go:3: calls MicroOps"},
		{"internal/perf/ops.go", "package perf\nimport tr \"vcprof/internal/trace\"\nvar ops []tr.MicroOp\n",
			"internal/perf/ops.go:3: holds micro-ops in a []trace.MicroOp"},
		{"internal/trace/legacy.go", "package trace\nfunc ReadLegacy() {}\n",
			"internal/trace declares 2 func Read…"},
		{"internal/perf/record.go", "package perf\nfunc record() {\n\tenc.Encode(ctx, clip, opts)\n\tenc.Encode(ctx, clip, opts)\n}\n",
			"internal/perf/record.go calls enc.Encode 2 times"},
	}},
	{"one-wait", checkWait, []plant{
		{"internal/service/client.go", "package service\nimport \"time\"\nfunc (c Client) Drive() {\n\ttime.Sleep(time.Second)\n}\n",
			"internal/service/client.go:4: Client.Drive names Sleep"},
		{"internal/service/client.go", "package service\nfunc (c *Client) Drive() {}\n",
			"Drive not found"},
		{"internal/service/client.go", "package service\nfunc (c Client) Run() {}\n",
			"Drive not found"},
		{"internal/cluster/poll.go", "package cluster\nfunc (c Client) Status() {}\n",
			"internal/cluster/poll.go:2: declares Client.Status"},
		{"internal/live/poll.go", "package live\nimport \"net/http\"\nvar req, _ = http.NewRequest(http.MethodGet, base+\"/v1/jobs/\"+id, nil)\n",
			`internal/live/poll.go:3: GETs the job status endpoint "/v1/jobs/"`},
		{"internal/live/backoff.go", "package live\nfunc wait() {\n\tfor delay := 1; ; {\n\t\tdelay *= 2\n\t}\n}\n",
			"internal/live/backoff.go:4: doubles delay"},
	}},
	{"one-api", checkAPI, []plant{
		{"internal/cluster/mux.go", "package cluster\nfunc mount(mux *http.ServeMux) {\n\tmux.HandleFunc(\"GET /v1/jobs/{id}\", h)\n}\n",
			`internal/cluster/mux.go:3: mounts "GET /v1/jobs/{id}"`},
		{"cmd/vcprofd/health.go", "package main\nfunc init() { http.Handle(\"/healthz\", h) }\n",
			`cmd/vcprofd/health.go:2: mounts "/healthz"`},
		{"bench/mux.go", "package main\nfunc mount(mux *http.ServeMux) { mux.Handle(\"POST /v1/sessions/{id}/frames\", h) }\n",
			`bench/mux.go:2: mounts "POST /v1/sessions/{id}/frames"`},
	}},
}

// TestArchitectureContracts checks every contract on the tree's
// non-test files, then that each planted violation is flagged.
func TestArchitectureContracts(t *testing.T) {
	tr := &tree{fset: token.NewFileSet()}
	for _, p := range moduleGoFiles(t, false) {
		if err := tr.parse(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.files) == 0 {
		t.Fatal("no .go file found: the walk did not reach the packages")
	}
	for _, c := range contracts {
		t.Run(c.name, func(t *testing.T) {
			for _, f := range c.check(tr) {
				t.Error(f)
			}
			for _, p := range c.plants {
				planted, err := tr.with(p.path, p.src)
				if err != nil {
					t.Fatalf("plant %s: %v", p.path, err)
				}
				found := c.check(planted)
				if !slices.ContainsFunc(found, func(f string) bool { return strings.Contains(f, p.want) }) {
					t.Errorf("planted %s not flagged: want a finding containing %q, got %q", p.path, p.want, found)
				}
			}
		})
	}
}
