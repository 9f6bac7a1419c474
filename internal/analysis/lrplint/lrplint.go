// Package lrplint bundles the repository's analyzers into one runnable
// suite, shared by cmd/lrplint and the analyzer tests. Besides the plain
// text mode it provides a JSON output mode, a baseline mechanism (CI fails
// on findings not present in a checked-in baseline, so waived legacy
// findings are tracked instead of hidden), and a -why debug verb that
// prints call-graph paths from //lrp:hotpath roots to a named function.
package lrplint

import (
	"encoding/json"
	"fmt"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"lrp/internal/analysis/determinism"
	"lrp/internal/analysis/eventhandle"
	"lrp/internal/analysis/framework"
	"lrp/internal/analysis/hotalloc"
	"lrp/internal/analysis/mbufown"
	"lrp/internal/analysis/stepreq"
)

// Analyzers returns the full suite in reporting order.
func Analyzers() []*framework.Analyzer {
	return []*framework.Analyzer{
		determinism.Analyzer,
		mbufown.Analyzer,
		eventhandle.Analyzer,
		hotalloc.Analyzer,
		stepreq.Analyzer,
	}
}

// Options controls one suite run.
type Options struct {
	// JSON emits findings as a JSON array (the same schema the baseline
	// file uses) instead of one text line per finding.
	JSON bool
	// Baseline is the path of a baseline file; when set, findings matching
	// a baseline entry are reported but do not count toward the exit
	// status, so CI fails only on new findings.
	Baseline string
}

// Finding is one diagnostic in the JSON/baseline schema. File is
// module-relative so baselines survive checkouts at different paths; Line
// and Col are informational and ignored by baseline matching (edits above
// a waived finding must not un-waive it).
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// key is the baseline identity of a finding: position-independent.
func (f Finding) key() string { return f.Analyzer + "\x00" + f.File + "\x00" + f.Message }

// Run loads the packages matched by patterns (relative to the module
// containing dir), applies the suite, and writes diagnostics to w. It
// returns the number of findings that count toward failure (all findings,
// minus baselined ones when a baseline is configured).
func Run(dir string, patterns []string, w io.Writer, opts Options) (int, error) {
	loader, err := framework.NewLoader(dir)
	if err != nil {
		return 0, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return 0, err
	}
	prog := framework.NewProgram(pkgs, loader.Loaded())
	diags, err := framework.Run(prog, Analyzers())
	if err != nil {
		return 0, err
	}
	findings := make([]Finding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(loader.ModuleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		findings = append(findings, Finding{
			Analyzer: d.Analyzer,
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}

	// Baseline matching is a multiset: N baseline entries with one key
	// absorb at most N findings with that key; extras are new.
	newCount := len(findings)
	baselined := map[int]bool{}
	if opts.Baseline != "" {
		allowance, err := loadBaseline(opts.Baseline)
		if err != nil {
			return 0, err
		}
		newCount = 0
		for i, f := range findings {
			if allowance[f.key()] > 0 {
				allowance[f.key()]--
				baselined[i] = true
			} else {
				newCount++
			}
		}
	}

	if opts.JSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			return 0, err
		}
		return newCount, nil
	}
	for i, f := range findings {
		suffix := ""
		if baselined[i] {
			suffix = " (baselined)"
		}
		fmt.Fprintf(w, "%s:%d:%d: %s [%s]%s\n", f.File, f.Line, f.Col, f.Message, f.Analyzer, suffix)
	}
	return newCount, nil
}

// loadBaseline reads a baseline file (the -json output format) into a
// key -> count allowance map.
func loadBaseline(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var entries []Finding
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	out := map[string]int{}
	for _, e := range entries {
		out[e.key()]++
	}
	return out, nil
}

// Why prints, for every //lrp:hotpath root that reaches it, one shortest
// call-graph path to each function whose name matches symbol — the triage
// companion to hotalloc's transitive diagnostics. symbol matches by
// suffix against names of the form "pkg.Func" and "pkg.(*Recv).Method"
// (e.g. "sendFrags", "core.sendFrags", "(*Host).sendFrags").
func Why(dir string, symbol string, patterns []string, w io.Writer) error {
	loader, err := framework.NewLoader(dir)
	if err != nil {
		return err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return err
	}
	prog := framework.NewProgram(pkgs, loader.Loaded())
	g := prog.CallGraph()

	var targets []*types.Func
	for _, fi := range g.Funcs() {
		name := framework.ShortName(fi.Fn)
		if name == symbol || strings.HasSuffix(name, "."+symbol) || strings.Contains(name, symbol) {
			targets = append(targets, fi.Fn)
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("no function in the loaded program matches %q", symbol)
	}
	var roots []*framework.FuncInfo
	for _, fi := range g.Funcs() {
		if framework.HasDirective(fi.Decl.Doc, "lrp:hotpath") {
			roots = append(roots, fi)
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		return framework.ShortName(roots[i].Fn) < framework.ShortName(roots[j].Fn)
	})
	for _, target := range targets {
		fmt.Fprintf(w, "%s:\n", framework.ShortName(target))
		found := 0
		for _, root := range roots {
			path := g.PathFrom(root.Fn, target)
			if path == nil {
				continue
			}
			found++
			line := framework.ShortName(root.Fn)
			for _, e := range path {
				line += " -> " + framework.ShortName(e.Callee)
			}
			fmt.Fprintf(w, "  %s\n", line)
		}
		if found == 0 {
			fmt.Fprintf(w, "  (unreachable from any //lrp:hotpath root)\n")
		}
	}
	return nil
}
