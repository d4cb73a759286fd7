// Package preproc implements the subset of the C preprocessor that
// kernel DeviceTree sources rely on. The kernel build pipes every .dts
// through `cpp -x assembler-with-cpp` before dtc sees it, so real-world
// inputs are full of `#include <dt-bindings/...>`, constant macros like
// GPIO_ACTIVE_HIGH, function-like helpers, and `#ifdef` blocks — none
// of which dtc (or internal/dts) understands on its own.
//
// The assembler-with-cpp mode matters: a DTS line like
// `#address-cells = <1>;` starts with '#' but is not a preprocessor
// directive, and cpp in this mode passes unknown directives through
// verbatim instead of rejecting them. This package does the same,
// which is the only reason DTS and cpp can coexist in one file.
//
// Every output line carries its origin (original file and line), so
// parse errors and blame positions from the combined text can be
// remapped onto the files the user actually wrote (DESIGN.md §16).
// All failures are *dts.ParseError values; resource guards wrap the
// parser's existing sentinels (dts.ErrTooDeep for include/expansion
// nesting, dts.ErrSourceTooLarge for size budgets), so server-side
// callers classify preprocessor blowups exactly like parser blowups.
package preproc

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"llhsc/internal/dts"
)

// FS abstracts file access for #include resolution, so the server can
// preprocess from an in-memory request and tests need no tempdirs.
type FS interface {
	ReadFile(name string) ([]byte, error)
}

type osFS struct{}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// MapFS serves includes from an in-memory map keyed by path.
type MapFS map[string]string

// ReadFile implements FS.
func (m MapFS) ReadFile(name string) ([]byte, error) {
	src, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("file %q not found", name)
	}
	return []byte(src), nil
}

// Defaults for the resource guards (overridable via Options).
const (
	defaultMaxDepth    = 32
	defaultMaxExpand   = 1 << 20 // bytes a single line may expand to
	defaultMaxExpDepth = 200     // nested macro expansions
)

// Options configures a preprocessor run.
type Options struct {
	// IncludePaths are the -I search directories: the only candidates
	// for <...> includes, and the fallback for "..." includes after the
	// including file's own directory.
	IncludePaths []string
	// Defines are -D command-line macros (object-like; value may be "").
	Defines map[string]string
	// FS resolves include files; nil means the operating system.
	FS FS
	// MaxDepth bounds include nesting (0 = default 32). Exceeding it
	// fails with an error wrapping dts.ErrTooDeep.
	MaxDepth int
	// MaxBytes bounds the cumulative size of all processed source,
	// matching the parser's WithMaxSourceBytes (0 = unlimited).
	// Exceeding it fails with an error wrapping dts.ErrSourceTooLarge.
	MaxBytes int
	// MaxExpand bounds the size a single line may reach through macro
	// expansion (0 = default 1MiB), guarding against exponential
	// macro growth. Exceeding it wraps dts.ErrSourceTooLarge.
	MaxExpand int
}

// originRun says that output lines from out on, up to the next run's,
// come from consecutive lines of file starting at line. A new run
// starts only where that stops holding: at an include boundary, after
// a directive or a skipped region.
type originRun struct {
	out  int // first output line of the run, 1-based
	file string
	line int
}

// Result is preprocessed source plus the line-origin map.
type Result struct {
	// Text is the preprocessed source, ready for dts.Parse.
	Text  string
	runs  []originRun
	lines int // output lines in Text
}

// Origin maps a 1-based line number of Text to the original file and
// line it came from; ("", 0) if out of range.
func (r *Result) Origin(line int) (string, int) {
	if line < 1 || line > r.lines {
		return "", 0
	}
	i := sort.Search(len(r.runs), func(i int) bool { return r.runs[i].out > line }) - 1
	run := r.runs[i]
	return run.file, run.line + line - run.out
}

// LineOrigins preprocesses src as Source does and also returns the
// origin of every output line as its own entry: the per-line table that
// Result's runs compress. It is the oracle the tests and FuzzPreproc
// check Origin against, and nothing else calls it.
func LineOrigins(file, src string, opts Options) (*Result, []dts.Origin, error) {
	var lines []dts.Origin
	res, err := source(file, src, opts, &lines)
	return res, lines, err
}

type macro struct {
	name     string
	funcLike bool
	params   []string
	body     string
}

type state struct {
	opts       Options
	fs         FS
	macros     map[string]*macro
	out        strings.Builder // Text, written in place as lines expand
	lines      int             // lines written to out
	runs       []originRun
	perLine    *[]dts.Origin // every line's origin as well, for LineOrigins
	hide       []string      // macros being expanded, innermost last
	totalBytes int
	including  []string // active include chain, for cycle detection
}

func errAt(file string, line int, sentinel error, format string, args ...interface{}) error {
	return &dts.ParseError{File: file, Line: line, Err: sentinel,
		Msg: fmt.Sprintf(format, args...)}
}

// Source preprocesses src (named file in diagnostics and origins).
func Source(file, src string, opts Options) (*Result, error) {
	return source(file, src, opts, nil)
}

func source(file, src string, opts Options, perLine *[]dts.Origin) (*Result, error) {
	s := &state{opts: opts, fs: opts.FS, macros: make(map[string]*macro), perLine: perLine}
	if s.fs == nil {
		s.fs = osFS{}
	}
	if s.opts.MaxDepth <= 0 {
		s.opts.MaxDepth = defaultMaxDepth
	}
	if s.opts.MaxExpand <= 0 {
		s.opts.MaxExpand = defaultMaxExpand
	}
	for name, body := range opts.Defines {
		if !isIdent(name) {
			return nil, errAt(file, 0, nil, "invalid -D macro name %q", name)
		}
		s.macros[name] = &macro{name: name, body: body}
	}
	if err := s.processFile(file, src, 0); err != nil {
		return nil, err
	}
	return &Result{Text: s.out.String(), runs: s.runs, lines: s.lines}, nil
}

// File reads and preprocesses a file; quoted includes resolve relative
// to its directory first.
func File(path string, opts Options) (*Result, error) {
	fs := opts.FS
	if fs == nil {
		fs = osFS{}
	}
	src, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Source(path, string(src), opts)
}

// condFrame is one open conditional group: #ifdef, #ifndef, or an #if
// inside a skipped group, which nests but is never evaluated.
type condFrame struct {
	active   bool // branch currently emitting (parent active too)
	taken    bool // some branch of this conditional was taken
	seenElse bool
	line     int // of the opening directive, for unterminated-ifdef errors
}

// activeIn reports whether the innermost frame emits; a frame is only
// ever active when its parent is, so the innermost one decides.
func activeIn(conds []condFrame) bool {
	return len(conds) == 0 || conds[len(conds)-1].active
}

// nextLine returns the line of src starting at *pos and moves *pos past
// its newline. A trailing newline ends the last line; it does not start
// an empty one.
func nextLine(src string, pos *int) string {
	rest := src[*pos:]
	if i := strings.IndexByte(rest, '\n'); i >= 0 {
		*pos += i + 1
		return rest[:i]
	}
	*pos = len(src)
	return rest
}

func (s *state) processFile(file, src string, depth int) error {
	if depth > s.opts.MaxDepth {
		return errAt(file, 1, dts.ErrTooDeep,
			"includes nested deeper than %d (cycle?): %v", s.opts.MaxDepth, dts.ErrTooDeep)
	}
	s.totalBytes += len(src)
	if s.opts.MaxBytes > 0 && s.totalBytes > s.opts.MaxBytes {
		return errAt(file, 1, dts.ErrSourceTooLarge,
			"%d bytes of source (limit %d): %v", s.totalBytes, s.opts.MaxBytes, dts.ErrSourceTooLarge)
	}
	s.including = append(s.including, file)
	defer func() { s.including = s.including[:len(s.including)-1] }()
	// Most of a file's lines come through once, so room for all of it
	// saves the output most of its regrowth.
	s.out.Grow(len(src))

	var conds []condFrame
	inComment := false
	for pos, lineno := 0, 1; pos < len(src); lineno++ {
		line := nextLine(src, &pos)

		if !inComment {
			if name, rest, ok := directiveOf(line); ok {
				// Backslash continuations: join the logical line.
				first := lineno
				for strings.HasSuffix(rest, "\\") && pos < len(src) {
					lineno++
					rest = strings.TrimRight(strings.TrimSuffix(rest, "\\"), " \t") +
						" " + strings.TrimSpace(nextLine(src, &pos))
				}
				if err := s.directive(file, first, name, rest, &conds, depth); err != nil {
					return err
				}
				continue
			}
			// Not a recognized directive: lines like `#address-cells =
			// <1>;` are assembler-with-cpp passthrough, expanded and
			// emitted like any other line below. Continuations are not
			// joined for these (directiveOf only matches known names).
		}

		if !activeIn(conds) {
			// Still must track block comments inside skipped regions, or
			// a `*/` in dead code would desynchronize the scanner.
			inComment = skipComments(line, inComment)
			continue
		}

		var err error
		if inComment, err = s.expandLine(file, lineno, line, inComment); err != nil {
			return err
		}
		s.endLine(file, lineno)
	}

	if len(conds) > 0 {
		return errAt(file, conds[len(conds)-1].line, nil,
			"unterminated #ifdef/#ifndef (opened here)")
	}
	return nil
}

// endLine ends the output line just expanded from line of file,
// extending the last origin run when the line continues it.
func (s *state) endLine(file string, line int) {
	s.out.WriteByte('\n')
	s.lines++
	if s.perLine != nil {
		*s.perLine = append(*s.perLine, dts.Origin{File: file, Line: line})
	}
	if n := len(s.runs); n > 0 {
		if r := s.runs[n-1]; r.file == file && r.line+s.lines-r.out == line {
			return
		}
	}
	s.runs = append(s.runs, originRun{out: s.lines, file: file, line: line})
}

// directiveOf recognizes a preprocessor directive line: optional
// whitespace, '#', optional whitespace, then a known directive name.
// It returns the name and the remainder of the line. Lines starting
// with '#' but not naming a known directive (DTS properties like
// #address-cells) are not directives.
func directiveOf(line string) (name, rest string, ok bool) {
	t := strings.TrimLeft(line, " \t")
	if !strings.HasPrefix(t, "#") {
		return "", "", false
	}
	t = strings.TrimLeft(t[1:], " \t")
	j := 0
	for j < len(t) && (t[j] >= 'a' && t[j] <= 'z') {
		j++
	}
	name = t[:j]
	switch name {
	case "include", "define", "undef", "ifdef", "ifndef", "else", "endif",
		"if", "elif", "error", "warning", "pragma", "line":
		return name, strings.TrimSpace(t[j:]), true
	}
	return "", "", false
}

// directive executes one recognized directive. Conditionals nest in
// skipped groups too, as in cpp: there an #if only opens a frame that no
// branch can take, and an #elif only closes its frame's taken branch;
// neither expression is evaluated. Any other directive in a skipped
// group is dropped.
func (s *state) directive(file string, line int, name, rest string, conds *[]condFrame, depth int) error {
	active := activeIn(*conds)
	switch name {
	case "ifdef", "ifndef":
		if !isIdent(rest) {
			return errAt(file, line, nil, "#%s needs a macro name, got %q", name, rest)
		}
		_, defined := s.macros[rest]
		branch := defined == (name == "ifdef")
		*conds = append(*conds, condFrame{active: active && branch, taken: branch, line: line})
		return nil

	case "if":
		if active {
			return notSupported(file, line, name)
		}
		*conds = append(*conds, condFrame{taken: true, line: line})
		return nil

	case "elif":
		if len(*conds) == 0 {
			return errAt(file, line, nil, "#elif without #if")
		}
		c := &(*conds)[len(*conds)-1]
		if c.seenElse {
			return errAt(file, line, nil, "#elif after #else")
		}
		if !c.taken && activeIn((*conds)[:len(*conds)-1]) {
			return notSupported(file, line, name) // it would decide the group
		}
		c.active = false
		return nil

	case "else":
		if len(*conds) == 0 {
			return errAt(file, line, nil, "#else without #ifdef")
		}
		c := &(*conds)[len(*conds)-1]
		if c.seenElse {
			return errAt(file, line, nil, "#else after #else")
		}
		c.seenElse = true
		c.active = !c.taken && activeIn((*conds)[:len(*conds)-1])
		c.taken = true
		return nil

	case "endif":
		if len(*conds) == 0 {
			return errAt(file, line, nil, "#endif without #ifdef")
		}
		*conds = (*conds)[:len(*conds)-1]
		return nil
	}

	if !active {
		return nil
	}

	switch name {
	case "include":
		return s.include(file, line, rest, depth)
	case "define":
		return s.define(file, line, rest)
	case "undef":
		if !isIdent(rest) {
			return errAt(file, line, nil, "#undef needs a macro name, got %q", rest)
		}
		delete(s.macros, rest)
		return nil
	case "error":
		return errAt(file, line, nil, "#error %s", rest)
	case "warning", "pragma", "line":
		// Accepted and dropped: none of these affect the token stream we
		// care about, and kernel DTS does not depend on them.
		return nil
	}
	return errAt(file, line, nil, "unhandled directive #%s", name)
}

// notSupported rejects an #if or #elif whose expression would decide
// what is emitted.
func notSupported(file string, line int, name string) error {
	return errAt(file, line, nil,
		"#%s is not supported (only #ifdef/#ifndef conditionals); guard with defined-ness instead", name)
}

func (s *state) include(file string, line int, rest string, depth int) error {
	var name string
	var angled bool
	switch {
	case len(rest) >= 2 && rest[0] == '"':
		end := strings.IndexByte(rest[1:], '"')
		if end < 0 {
			return errAt(file, line, nil, "unterminated #include filename")
		}
		name = rest[1 : 1+end]
	case len(rest) >= 2 && rest[0] == '<':
		end := strings.IndexByte(rest, '>')
		if end < 0 {
			return errAt(file, line, nil, "unterminated #include filename")
		}
		name = rest[1:end]
		angled = true
	default:
		return errAt(file, line, nil, `#include expects "file" or <file>, got %q`, rest)
	}
	if name == "" {
		return errAt(file, line, nil, "#include with empty filename")
	}

	var candidates []string
	if !angled {
		candidates = append(candidates, filepath.Join(filepath.Dir(file), name))
	}
	for _, dir := range s.opts.IncludePaths {
		candidates = append(candidates, filepath.Join(dir, name))
	}
	for _, cand := range candidates {
		src, ok := s.readFile(cand)
		if !ok {
			continue
		}
		for _, open := range s.including {
			if open == cand {
				return errAt(file, line, dts.ErrTooDeep,
					"include cycle: %s already being processed: %v", cand, dts.ErrTooDeep)
			}
		}
		return s.processFile(cand, src, depth+1)
	}
	return errAt(file, line, nil, "#include %q not found in include paths", name)
}

// readFile reads an include candidate. A MapFS is read in place, without
// the copy into []byte and back that its ReadFile would make.
func (s *state) readFile(name string) (string, bool) {
	if m, ok := s.fs.(MapFS); ok {
		src, ok := m[name]
		return src, ok
	}
	src, err := s.fs.ReadFile(name)
	return string(src), err == nil
}

func (s *state) define(file string, line int, rest string) error {
	j := identLen(rest)
	if j == 0 {
		return errAt(file, line, nil, "#define needs a macro name, got %q", rest)
	}
	m := &macro{name: rest[:j]}
	rest = rest[j:]
	if strings.HasPrefix(rest, "(") {
		// Function-like only when '(' immediately follows the name.
		m.funcLike = true
		end := strings.IndexByte(rest, ')')
		if end < 0 {
			return errAt(file, line, nil, "#define %s: unterminated parameter list", m.name)
		}
		for _, p := range strings.Split(rest[1:end], ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				if end == 1 { // empty list: NAME()
					break
				}
				return errAt(file, line, nil, "#define %s: empty parameter name", m.name)
			}
			if !isIdent(p) {
				return errAt(file, line, nil, "#define %s: invalid parameter %q", m.name, p)
			}
			m.params = append(m.params, p)
		}
		rest = rest[end+1:]
	}
	m.body = strings.TrimSpace(rest)
	s.macros[m.name] = m
	return nil
}

func isIdent(s string) bool { return s != "" && identLen(s) == len(s) }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func identLen(s string) int {
	i := 0
	for i < len(s) {
		c := s[i]
		if i == 0 && !isIdentStart(c) {
			return 0
		}
		if !isIdentStart(c) && !(c >= '0' && c <= '9') {
			break
		}
		i++
	}
	return i
}

// stringEnd returns the index just past the string literal that opens
// at text[i], or len(text) when it does not close.
func stringEnd(text string, i int) int {
	j := i + 1
	for j < len(text) && text[j] != '"' {
		if text[j] == '\\' && j+1 < len(text) {
			j++
		}
		j++
	}
	if j < len(text) {
		j++ // closing quote
	}
	return j
}

// skipComments walks a line of a skipped region only to track comment
// state: it returns the block-comment state at the end of the line.
func skipComments(line string, inComment bool) bool {
	for i := 0; i < len(line); {
		if inComment {
			j := strings.Index(line[i:], "*/")
			if j < 0 {
				return true
			}
			i += j + 2
			inComment = false
			continue
		}
		j := strings.IndexByte(line[i:], '/')
		if j < 0 {
			return false
		}
		i += j
		switch {
		case strings.HasPrefix(line[i:], "/*"):
			inComment = true
			i += 2
		case strings.HasPrefix(line[i:], "//"):
			return false
		default:
			i++
		}
	}
	return inComment
}

// expandLine macro-expands one source line into the output, respecting
// string literals and comments. inComment is the block-comment state
// carried in from the previous line; the updated state is returned.
// Text that no macro replaces is written in spans, not byte by byte.
func (s *state) expandLine(file string, line int, text string, inComment bool) (bool, error) {
	budget := s.opts.MaxExpand
	start, i := 0, 0 // text[start:i] is copied through but not written yet
	for i < len(text) {
		if inComment {
			j := strings.Index(text[i:], "*/")
			if j < 0 {
				break
			}
			i += j + 2
			inComment = false
			continue
		}
		c := text[i]
		switch {
		case strings.HasPrefix(text[i:], "/*"):
			inComment = true
			i += 2
		case strings.HasPrefix(text[i:], "//"):
			i = len(text)
		case c == '"':
			i = stringEnd(text, i)
		case isIdentStart(c):
			j := i + identLen(text[i:])
			m := s.macros[text[i:j]]
			if m == nil {
				i = j
				continue
			}
			s.out.WriteString(text[start:i])
			rest, err := s.expand(m, file, line, text[j:], 0, &budget)
			if err != nil {
				return inComment, err
			}
			text, start, i = rest, 0, 0
		default:
			i++
		}
	}
	s.out.WriteString(text[start:])
	return inComment, nil
}

// expand writes the expansion of macro m into the output. rest is the
// text following the macro's name (consulted for function-like
// argument lists); expand returns its unconsumed remainder. s.hide
// carries the macros currently being expanded (cpp's blue paint), which
// is what terminates self-referential macros.
func (s *state) expand(m *macro, file string, line int, rest string, depth int, budget *int) (string, error) {
	if depth > defaultMaxExpDepth {
		return "", errAt(file, line, dts.ErrTooDeep,
			"macro expansion nested deeper than %d: %v", defaultMaxExpDepth, dts.ErrTooDeep)
	}

	body := m.body
	if m.funcLike {
		args, after, ok, err := scanArgs(file, line, rest, m.name)
		if err != nil {
			return "", err
		}
		if !ok {
			// Function-like macro name without an argument list stays a
			// plain identifier, as in cpp.
			s.out.WriteString(m.name)
			return rest, nil
		}
		if len(args) != len(m.params) && !(len(m.params) == 0 && len(args) == 1 && strings.TrimSpace(args[0]) == "") {
			return "", errAt(file, line, nil,
				"macro %s expects %d arguments, got %d", m.name, len(m.params), len(args))
		}
		body = substituteParams(body, m.params, args)
		rest = after
	}

	*budget -= len(body)
	if *budget < 0 {
		return "", errAt(file, line, dts.ErrSourceTooLarge,
			"macro expansion of %s exceeds %d bytes: %v", m.name, s.opts.MaxExpand, dts.ErrSourceTooLarge)
	}

	// Rescan the substituted body with this macro hidden.
	s.hide = append(s.hide, m.name)
	start, i := 0, 0 // body[start:i] is copied through but not written yet
	for i < len(body) {
		c := body[i]
		switch {
		case c == '"':
			i = stringEnd(body, i)
		case isIdentStart(c):
			j := i + identLen(body[i:])
			inner := s.macros[body[i:j]]
			if inner == nil || hidden(s.hide, inner.name) {
				i = j
				continue
			}
			s.out.WriteString(body[start:i])
			var err error
			if j == len(body) {
				// The argument list of a nested invocation may continue
				// in rest (e.g. `#define A F` used as `A(1)`): when the
				// body ends right after the identifier, let it consume
				// from rest.
				rest, err = s.expand(inner, file, line, rest, depth+1, budget)
				body = ""
			} else {
				body, err = s.expand(inner, file, line, body[j:], depth+1, budget)
			}
			if err != nil {
				return "", err
			}
			start, i = 0, 0
		default:
			i++
		}
	}
	s.out.WriteString(body[start:])
	s.hide = s.hide[:len(s.hide)-1]
	return rest, nil
}

func hidden(hide []string, name string) bool {
	for _, h := range hide {
		if h == name {
			return true
		}
	}
	return false
}

// scanArgs reads a parenthesized argument list from text (which follows
// a function-like macro name). ok=false when no list starts after
// optional whitespace. Arguments split on top-level commas; nested
// parentheses are respected. The list must close on the same line.
func scanArgs(file string, line int, text, macroName string) (args []string, rest string, ok bool, err error) {
	i := 0
	for i < len(text) && (text[i] == ' ' || text[i] == '\t') {
		i++
	}
	if i >= len(text) || text[i] != '(' {
		return nil, "", false, nil
	}
	depth := 0
	start := i + 1
	inStr := false
	for j := i; j < len(text); j++ {
		c := text[j]
		if inStr {
			if c == '\\' {
				j++
			} else if c == '"' {
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				args = append(args, strings.TrimSpace(text[start:j]))
				return args, text[j+1:], true, nil
			}
		case ',':
			if depth == 1 {
				args = append(args, strings.TrimSpace(text[start:j]))
				start = j + 1
			}
		}
	}
	return nil, "", false, errAt(file, line, nil,
		"unterminated argument list for macro %s (must close on the same line)", macroName)
}

// substituteParams replaces parameter identifiers in a macro body with
// the given argument texts and resolves ## token pasting by deleting
// the operator and surrounding whitespace.
// argFor returns the argument for parameter word, or word itself when
// it names no parameter. A repeated parameter name takes its last
// argument.
func argFor(word string, params, args []string) string {
	for k := min(len(params), len(args)) - 1; k >= 0; k-- {
		if params[k] == word {
			return args[k]
		}
	}
	return word
}

func substituteParams(body string, params, args []string) string {
	var b strings.Builder
	i := 0
	for i < len(body) {
		c := body[i]
		switch {
		case c == '"':
			j := stringEnd(body, i)
			b.WriteString(body[i:j])
			i = j
		case isIdentStart(c):
			j := i + identLen(body[i:])
			word := body[i:j]
			b.WriteString(argFor(word, params, args))
			i = j
		default:
			b.WriteByte(c)
			i++
		}
	}
	out := b.String()
	for {
		k := strings.Index(out, "##")
		if k < 0 {
			return out
		}
		left := strings.TrimRight(out[:k], " \t")
		right := strings.TrimLeft(out[k+2:], " \t")
		out = left + right
	}
}

// Parse preprocesses source text and parses the result, remapping
// every parse-error position and tree/fragment Origin back to the
// original files through the line-origin map. Parser options (include
// resolution for /include/, depth and size limits) pass through.
func Parse(file, src string, opts Options, popts ...dts.ParseOption) (*dts.Tree, error) {
	res, err := Source(file, src, opts)
	if err != nil {
		return nil, err
	}
	tree, err := dts.Parse(file, res.Text, popts...)
	if err != nil {
		var pe *dts.ParseError
		if errors.As(err, &pe) && pe.File == file {
			if of, ol := res.Origin(pe.Line); of != "" {
				pe.File, pe.Line = of, ol
			}
		}
		return nil, err
	}
	remapOrigins(tree, file, res)
	return tree, nil
}

// ParseFile preprocesses and parses a file from disk (or opts.FS),
// with quoted includes resolving against the file's directory.
func ParseFile(path string, opts Options, popts ...dts.ParseOption) (*dts.Tree, error) {
	fs := opts.FS
	if fs == nil {
		fs = osFS{}
	}
	src, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, string(src), opts, popts...)
}

// remapOrigins rewrites Origin positions that point into the combined
// preprocessed text back to the original files. Only origins naming
// the combined file are touched: /include/-resolved units keep their
// own file names from the parser.
func remapOrigins(t *dts.Tree, file string, res *Result) {
	fix := func(o *dts.Origin) {
		if o.File != file {
			return
		}
		if of, ol := res.Origin(o.Line); of != "" {
			o.File, o.Line = of, ol
		}
	}
	var walk func(n *dts.Node)
	walk = func(n *dts.Node) {
		fix(&n.Origin)
		for _, p := range n.Properties {
			fix(&p.Origin)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	for _, f := range t.Fragments {
		walk(f.Node)
	}
}
