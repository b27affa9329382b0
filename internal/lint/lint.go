// Package lint implements prever-lint, a stdlib-only static-analysis
// driver (go/ast + go/parser + go/types + go/token, no x/tools) with
// analyzers tuned to this codebase's real failure modes.
//
// PReVer's trust story rests on the substrates being correct: the paper's
// verification step is only as strong as the crypto and consensus code
// beneath it, and `go vet` cannot see the project-specific invariants —
// a mutex held across a channel send (the netsim race PR 1 fixed),
// math/rand seeding a blind-signature nonce, or a MAC checked with
// bytes.Equal. Each analyzer here encodes one such invariant.
//
// Findings print as "file:line: [analyzer] message" and make the driver
// exit nonzero. A finding that is a deliberate, reviewed exception is
// suppressed in place with
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory: a bare directive is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is a single diagnostic produced by an analyzer.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path; analyzers scope on it
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// finding builds a Finding at a node position.
func (p *Package) finding(pos token.Pos, analyzer, format string, args ...any) Finding {
	return Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// Analyzer inspects code and reports findings. Most analyzers are
// per-package (Run); an analyzer whose invariant spans packages — the
// lock-acquisition graph — sees the whole loaded program at once
// (RunProgram). Exactly one of the two is set.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(p *Package) []Finding
	RunProgram func(pkgs []*Package) []Finding
}

// All returns the full analyzer registry.
func All() []*Analyzer {
	return []*Analyzer{
		AtomicMix, ChanClose, ConstTime, CryptoRand, DeferLoop,
		ErrIgnored, LockHeld, LockOrder, TimerLeak, WalOrder,
	}
}

// cryptoPackages hold secret material: keys, nonces, openings, shares.
// CryptoRand and ConstTime scope to them.
var cryptoPackages = map[string]bool{
	"prever/internal/blind":  true,
	"prever/internal/commit": true,
	"prever/internal/group":  true,
	"prever/internal/he":     true,
	"prever/internal/mpc":    true,
	"prever/internal/pir":    true,
	"prever/internal/shamir": true,
	"prever/internal/token":  true,
	"prever/internal/zk":     true,
}

// concurrencyPackages are the lock-heavy packages where a blocking
// operation under a held mutex has already caused (netsim, PR 1) or can
// cause deadlocks. LockHeld scopes to them.
var concurrencyPackages = map[string]bool{
	"prever/internal/core":   true,
	"prever/internal/netsim": true,
	"prever/internal/paxos":  true,
	"prever/internal/pbft":   true,
}

// durabilityPackages journal state transitions to the WAL before they
// speak on the network (DESIGN §4e durable-before-send). WalOrder scopes
// to them.
var durabilityPackages = map[string]bool{
	"prever/internal/pbft": true,
}

// Run applies the analyzers to every package (and the program-level
// analyzers to the package set as a whole), drops findings suppressed by
// //lint:ignore directives, and returns the rest sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var fs, bad []Finding
	ignores := make(ignoreIndex)
	for _, p := range pkgs {
		for _, a := range analyzers {
			if a.Run != nil {
				fs = append(fs, a.Run(p)...)
			}
		}
		pIgnores, pBad := collectIgnores(p, known)
		ignores.merge(pIgnores)
		bad = append(bad, pBad...)
	}
	for _, a := range analyzers {
		if a.RunProgram != nil {
			fs = append(fs, a.RunProgram(pkgs)...)
		}
	}
	var out []Finding
	for _, f := range fs {
		if !ignores.suppresses(f) {
			out = append(out, f)
		}
	}
	out = append(out, bad...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}
