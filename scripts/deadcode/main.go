// Command deadcode lists the production functions that no binary of this
// repository links, and fails when one is not on its allowlist.
//
// It builds every main (cmd/, examples/, scripts/fleetcheck and the nested
// e2ebench module) with inlining disabled into a temporary directory, reads
// each binary's kertbn/... symbols with `go tool nm`, and compares their
// union with every top-level func and method declared in the non-test .go
// files outside cmd/, examples/, scripts/ and e2ebench/.
//
// Run it from the repository root:
//
//	go run ./scripts/deadcode
//
// Each line of allowlist.txt names one function that may stay unlinked:
//
//	internal/obs CheckName  # reason
//
// Methods are written Type.Method. The scan fails on an unlinked function
// that is not listed, and on a stale entry: one that is now linked or no
// longer exists. It prints the total lines of unlinked functions.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const module = "kertbn"

// mains are the repository's binaries, as (module dir, package) pairs.
var mains = [][2]string{
	{".", "./cmd/kertbench"},
	{".", "./cmd/kertmon"},
	{".", "./cmd/kertquery"},
	{".", "./cmd/kertsim"},
	{".", "./examples/datacenter"},
	{".", "./examples/decentralized"},
	{".", "./examples/ediamond"},
	{".", "./examples/quickstart"},
	{".", "./examples/workflowdsl"},
	{".", "./scripts/fleetcheck"},
	{"e2ebench", "."},
}

// excluded are the top-level directories whose functions are not scanned:
// they hold the mains themselves.
var excluded = map[string]bool{"cmd": true, "examples": true, "scripts": true, "e2ebench": true}

// decl is one top-level function or method of a scanned package.
type decl struct {
	key   string // "internal/obs CheckName" or "internal/core Scheduler.Push"
	pos   string // file:line
	lines int
}

func main() {
	tmp, err := os.MkdirTemp("", "deadcode-")
	if err != nil {
		fatal(err)
	}
	code := run(tmp)
	os.RemoveAll(tmp)
	os.Exit(code)
}

// run builds the mains into tmp, reports, and returns the exit code.
func run(tmp string) int {
	linked := map[string]bool{}
	for i, m := range mains {
		bin := filepath.Join(tmp, fmt.Sprintf("bin%d", i))
		build := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, m[1])
		build.Dir = m[0]
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return report(fmt.Errorf("build %s: %w", filepath.Join(m[0], m[1]), err))
		}
		if err := addSymbols(bin, linked); err != nil {
			return report(err)
		}
	}

	decls, err := scanDecls(".")
	if err != nil {
		return report(err)
	}
	allow, err := readAllowlist(filepath.Join("scripts", "deadcode", "allowlist.txt"))
	if err != nil {
		return report(err)
	}

	declared := map[string]bool{}
	failed := false
	total := 0
	for _, d := range decls {
		declared[d.key] = true
		if linked[d.key] {
			continue
		}
		total += d.lines
		if _, ok := allow[d.key]; !ok {
			fmt.Printf("unlinked: %s (%s, %d lines)\n", d.key, d.pos, d.lines)
			failed = true
		}
	}
	var stale []string
	for key := range allow {
		switch {
		case !declared[key]:
			stale = append(stale, key+": no longer exists")
		case linked[key]:
			stale = append(stale, key+": now linked")
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		fmt.Printf("stale allowlist entry %s\n", s)
		failed = true
	}
	fmt.Printf("%d lines of unlinked production functions (%d allowlisted entries)\n", total, len(allow))
	if failed {
		return 1
	}
	return 0
}

// addSymbols adds the kertbn function symbols of bin to linked, keyed as
// scanDecls keys declarations.
func addSymbols(bin string, linked map[string]bool) error {
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		return fmt.Errorf("go tool nm %s: %w", bin, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		// "  4a3b20 T kertbn/internal/infer.(*QueryPlan).Serial"
		fields := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(fields) != 3 || (fields[1] != "T" && fields[1] != "t") {
			continue
		}
		if key, ok := symbolKey(fields[2]); ok {
			linked[key] = true
		}
	}
	return sc.Err()
}

// symbolKey maps a linker symbol to a declaration key. It accepts the
// forms pkg.F, pkg.T.M, pkg.(*T).M and pkg.F[...] (type arguments
// stripped); closures, method values and init functions map to no key.
func symbolKey(sym string) (string, bool) {
	if !strings.HasPrefix(sym, module+"/") && !strings.HasPrefix(sym, module+".") || strings.Contains(sym, "..") {
		return "", false
	}
	sym = stripBrackets(sym)
	// The package path ends at the first '.' after its last '/'.
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return "", false
	}
	pkg, name := strings.TrimPrefix(sym[:slash+1+dot], module+"/"), sym[slash+2+dot:]
	name = strings.NewReplacer("(*", "", ")", "").Replace(name)
	if strings.Count(name, ".") > 1 || strings.Contains(name, "-") {
		return "", false
	}
	return pkg + " " + name, true
}

// stripBrackets removes every balanced [...] segment from s.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// scanDecls parses every non-test .go file under root outside the excluded
// directories and returns its top-level functions and methods.
func scanDecls(root string) ([]decl, error) {
	var decls []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (excluded[path] || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		if pkg == "." {
			pkg = module
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				name = recvName(fn.Recv.List[0].Type) + "." + name
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			decls = append(decls, decl{
				key:   pkg + " " + name,
				pos:   fmt.Sprintf("%s:%d", path, start.Line),
				lines: end.Line - start.Line + 1,
			})
		}
		return nil
	})
	return decls, err
}

// recvName returns the type name of a method receiver, without pointer or
// type parameters.
func recvName(t ast.Expr) string {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", t)
		}
	}
}

// readAllowlist reads "pkg Func  # reason" lines; blank lines and lines
// starting with '#' are skipped. Every entry must give a reason.
func readAllowlist(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entry, reason, ok := strings.Cut(line, "#")
		fields := strings.Fields(entry)
		if !ok || strings.TrimSpace(reason) == "" || len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"pkg Func  # reason\", got %q", path, i+1, line)
		}
		key := fields[0] + " " + fields[1]
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate entry %s", path, i+1, key)
		}
		allow[key] = strings.TrimSpace(reason)
	}
	return allow, nil
}

func report(err error) int {
	fmt.Fprintln(os.Stderr, "deadcode:", err)
	return 2
}

func fatal(err error) {
	os.Exit(report(err))
}
