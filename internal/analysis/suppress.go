package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppressions are written as //lint:allow comments. Three scopes exist,
// chosen by where the comment sits:
//
//   - file scope: a //lint:allow line above the package clause silences
//     the listed checks for the whole file (e.g. an engine that is
//     kernel-9 faithful and may name a buffer parity directly);
//   - declaration scope: a //lint:allow line inside a top-level
//     declaration's doc comment silences the checks for that whole
//     declaration (e.g. a hand-over-hand locking helper lockcheck's
//     path model cannot prove);
//   - line scope: any other //lint:allow comment silences the checks on
//     its own line and the line directly below it (trailing or
//     preceding-line placement).
//
// Everything after " -- " is the human-readable reason; suppressions in
// this repository always carry one.
const allowPrefix = "lint:allow"

type allowRange struct {
	check    string
	from, to int // inclusive line range
}

type suppressions struct {
	fset *token.FileSet
	// byFile maps filename to file-wide allows and line ranges.
	fileWide map[string]map[string]bool
	ranges   map[string][]allowRange
}

// parseAllow extracts the check list from one comment, or nil if the
// comment is not a lint:allow directive.
func parseAllow(text string) []string {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	rest, ok := strings.CutPrefix(text, allowPrefix)
	if !ok {
		return nil
	}
	rest = strings.TrimSpace(rest)
	if reason := strings.Index(rest, "--"); reason >= 0 {
		rest = rest[:reason]
	}
	var checks []string
	for _, c := range strings.Split(rest, ",") {
		if c = strings.TrimSpace(c); c != "" {
			checks = append(checks, c)
		}
	}
	return checks
}

func newSuppressions(fset *token.FileSet, pkg *Package) *suppressions {
	s := &suppressions{
		fset:     fset,
		fileWide: make(map[string]map[string]bool),
		ranges:   make(map[string][]allowRange),
	}
	if pkg == nil {
		return s
	}
	for _, f := range pkg.Files {
		s.indexFile(f)
	}
	return s
}

func (s *suppressions) indexFile(f *ast.File) {
	pkgLine := s.fset.Position(f.Name.Pos()).Line
	filename := s.fset.Position(f.Pos()).Filename

	// Map each comment that is part of a top-level declaration's doc
	// comment to that declaration's line range.
	declRange := make(map[*ast.Comment][2]int)
	for _, decl := range f.Decls {
		var doc *ast.CommentGroup
		switch d := decl.(type) {
		case *ast.FuncDecl:
			doc = d.Doc
		case *ast.GenDecl:
			doc = d.Doc
		}
		if doc == nil {
			continue
		}
		from := s.fset.Position(decl.Pos()).Line
		to := s.fset.Position(decl.End()).Line
		for _, c := range doc.List {
			declRange[c] = [2]int{from, to}
		}
	}

	for _, cg := range f.Comments {
		for _, c := range cg.List {
			checks := parseAllow(c.Text)
			if len(checks) == 0 {
				continue
			}
			line := s.fset.Position(c.Pos()).Line
			switch {
			case line < pkgLine:
				fw := s.fileWide[filename]
				if fw == nil {
					fw = make(map[string]bool)
					s.fileWide[filename] = fw
				}
				for _, ch := range checks {
					fw[ch] = true
				}
			default:
				from, to := line, line+1
				if r, ok := declRange[c]; ok {
					from, to = r[0], r[1]
				}
				for _, ch := range checks {
					s.ranges[filename] = append(s.ranges[filename], allowRange{ch, from, to})
				}
			}
		}
	}
}

// allows reports whether a diagnostic of the given check at pos is
// suppressed.
func (s *suppressions) allows(check string, pos token.Position) bool {
	if s.fileWide[pos.Filename][check] {
		return true
	}
	for _, r := range s.ranges[pos.Filename] {
		if r.check == check && pos.Line >= r.from && pos.Line <= r.to {
			return true
		}
	}
	return false
}
