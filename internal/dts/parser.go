package dts

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Guard errors. Parse errors caused by an exceeded input limit wrap
// one of these sentinels, so callers can map them to a "request too
// large" response with errors.Is.
var (
	// ErrTooDeep reports node nesting beyond maxNodeDepth — deeply
	// nested input would otherwise exhaust the recursive-descent
	// parser's stack.
	ErrTooDeep = errors.New("dts: node nesting too deep")
	// ErrSourceTooLarge reports total source size (including resolved
	// includes) beyond the limit set with WithMaxSourceBytes.
	ErrSourceTooLarge = errors.New("dts: source too large")
)

// maxNodeDepth bounds node-body nesting, the root's body counted as
// the first level. Real device trees are a handful of levels deep; 64
// leaves generous headroom while keeping adversarial input from
// exhausting the goroutine stack.
const maxNodeDepth = 64

// Includer resolves /include/ directives to file contents.
type Includer interface {
	Resolve(name string) ([]byte, error)
}

// DirIncluder resolves includes relative to a directory on disk.
type DirIncluder string

// Resolve implements Includer.
func (d DirIncluder) Resolve(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(string(d), name))
}

// MapIncluder resolves includes from an in-memory map (used by tests
// and by embedded workloads).
type MapIncluder map[string]string

// Resolve implements Includer.
func (m MapIncluder) Resolve(name string) ([]byte, error) {
	src, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("include %q not found", name)
	}
	return []byte(src), nil
}

// ParseOption configures parsing.
type ParseOption func(*parser)

// WithIncluder supplies the resolver for /include/ directives. Without
// one, includes are an error.
func WithIncluder(inc Includer) ParseOption {
	return func(p *parser) { p.includer = inc }
}

// WithMaxSourceBytes caps the total source size, counting every
// /include/'d file (0 = unlimited). Exceeding it fails the parse with
// an error wrapping ErrSourceTooLarge.
func WithMaxSourceBytes(n int) ParseOption {
	return func(p *parser) { p.maxSourceBytes = n }
}

// Parse parses DTS source text into a Tree. file is used in error
// messages and origins.
//
// Parsing is two-pass: the first pass tokenizes every source unit
// (recursing into /include/s) and records top-level operations — root
// merges, named nodes, &label extensions, /delete-node/ — in document
// order; the second pass applies them, deferring label references that
// are not yet resolvable so forward references (a `&label { ... }`
// block before the label's definition) work as they do in dtc. In
// /plugin/ sources, references that never resolve become overlay
// fragments on the tree instead of errors.
func Parse(file, src string, opts ...ParseOption) (*Tree, error) {
	p := newParser(opts)
	if err := p.parseSource(file, src, 0); err != nil {
		return nil, err
	}
	if err := p.resolveTopLevel(); err != nil {
		return nil, err
	}
	return p.tree, nil
}

// parsed owns every node a parser builds. The parser merges with it as
// the owner, so a fresh block's properties and children move into the
// tree instead of being copied: nothing else references them yet. No
// tree is ever parsed itself, so every other tree's Own still copies a
// parsed node before writing it.
var parsed = new(Tree)

func newParser(opts []ParseOption) *parser {
	p := &parser{tree: NewTree(), maxDepth: 32}
	p.tree.Root.owner = parsed
	for _, o := range opts {
		o(p)
	}
	return p
}

// ParseFile reads and parses a DTS file; /include/ directives resolve
// relative to the file's directory.
func ParseFile(path string, opts ...ParseOption) (*Tree, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	opts = append([]ParseOption{WithIncluder(DirIncluder(filepath.Dir(path)))}, opts...)
	return Parse(filepath.Base(path), string(src), opts...)
}

// ParseFragment parses a bare node body of the form "{ ... }" — the
// payload syntax of delta-module operations (internal/delta). The
// returned node carries the fragment's properties and children under
// the given name.
func ParseFragment(file, name, src string, opts ...ParseOption) (*Node, error) {
	p := newParser(opts)
	if p.maxSourceBytes > 0 && len(src) > p.maxSourceBytes {
		return nil, &ParseError{File: file, Line: 1, Err: ErrSourceTooLarge,
			Msg: fmt.Sprintf("fragment is %d bytes (limit %d): %v",
				len(src), p.maxSourceBytes, ErrSourceTooLarge)}
	}
	p.lex = newLexer(file, src)
	if err := p.advance(); err != nil {
		return nil, err
	}
	n, err := p.parseNodeBody(name)
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected %v after fragment", p.tok.kind)
	}
	return n, nil
}

type parser struct {
	lex      *lexer
	tok      token
	tree     *Tree
	includer Includer
	maxDepth int // include nesting

	nodeDepth      int // node-body nesting, guarded by maxNodeDepth
	maxSourceBytes int // cumulative source size guard (0 = unlimited)
	sourceBytes    int

	ops []topOp // top-level operations in document order
}

// topOpKind discriminates deferred top-level operations.
type topOpKind int

const (
	opRootMerge  topOpKind = iota + 1 // / { ... };
	opNamedNode                       // name { ... }; at top level
	opRefMerge                        // &label { ... }; or &{/path} { ... };
	opRefDelete                       // /delete-node/ &label;
	opNameDelete                      // /delete-node/ name; (root child)
)

// topOp is one top-level operation recorded by the first parse pass.
type topOp struct {
	kind topOpKind
	ref  string // label or absolute path for opRefMerge/opRefDelete
	name string // node name for opNameDelete
	node *Node  // payload for the merge kinds
	file string // position for unresolved-reference diagnostics
	line int
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{File: p.lex.file, Line: p.tok.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.tok.kind != k {
		return token{}, p.errf("expected %v, found %v", k, p.tok.kind)
	}
	t := p.tok
	return t, p.advance()
}

// parseSource parses one source unit (top level of a file) into the
// shared tree, recursing into includes.
func (p *parser) parseSource(file, src string, depth int) error {
	if depth > p.maxDepth {
		return &ParseError{File: file, Line: 1,
			Msg: fmt.Sprintf("include nesting deeper than %d (cycle?)", p.maxDepth)}
	}
	p.sourceBytes += len(src)
	if p.maxSourceBytes > 0 && p.sourceBytes > p.maxSourceBytes {
		return &ParseError{File: file, Line: 1, Err: ErrSourceTooLarge,
			Msg: fmt.Sprintf("%d bytes of source (limit %d): %v",
				p.sourceBytes, p.maxSourceBytes, ErrSourceTooLarge)}
	}
	savedLex, savedTok := p.lex, p.tok
	p.lex = newLexer(file, src)
	if err := p.advance(); err != nil {
		return err
	}
	err := p.parseTopLevel(depth)
	p.lex, p.tok = savedLex, savedTok
	return err
}

func (p *parser) parseTopLevel(depth int) error {
	for {
		switch p.tok.kind {
		case tokEOF:
			return nil

		case tokDirective:
			switch p.tok.text {
			case "/dts-v1/":
				if err := p.advance(); err != nil {
					return err
				}
				if _, err := p.expect(tokSemi); err != nil {
					return err
				}
			case "/include/":
				if err := p.advance(); err != nil {
					return err
				}
				name, err := p.expect(tokString)
				if err != nil {
					return err
				}
				if p.includer == nil {
					return p.errf("/include/ %q: no includer configured", name.text)
				}
				src, err := p.includer.Resolve(name.text)
				if err != nil {
					return p.errf("/include/ %q: %v", name.text, err)
				}
				if err := p.parseSource(name.text, string(src), depth+1); err != nil {
					return err
				}
			case "/plugin/":
				if err := p.advance(); err != nil {
					return err
				}
				if _, err := p.expect(tokSemi); err != nil {
					return err
				}
				p.tree.Plugin = true
			case "/omit-if-no-ref/":
				// dtc uses this as a hint that the following node may be
				// dropped from the dtb when nothing references it. We keep
				// every node, so the directive is an explicit no-op: skip
				// it and parse the node definition that follows normally.
				if err := p.advance(); err != nil {
					return err
				}
			case "/memreserve/":
				if err := p.advance(); err != nil {
					return err
				}
				addr, err := p.expect(tokNumber)
				if err != nil {
					return err
				}
				size, err := p.expect(tokNumber)
				if err != nil {
					return err
				}
				if _, err := p.expect(tokSemi); err != nil {
					return err
				}
				p.tree.MemReserves = append(p.tree.MemReserves, MemReserve{
					Address: addr.num, Size: size.num,
				})
			case "/delete-node/":
				// Both dtc forms: the reference form `/delete-node/ &label;`
				// (resolved post-parse, so forward labels work) and the
				// name form `/delete-node/ name;` deleting a root child.
				line := p.tok.line
				if err := p.advance(); err != nil {
					return err
				}
				switch p.tok.kind {
				case tokRef:
					p.ops = append(p.ops, topOp{kind: opRefDelete, ref: p.tok.text,
						file: p.lex.file, line: line})
				case tokIdent:
					p.ops = append(p.ops, topOp{kind: opNameDelete, name: p.tok.text,
						file: p.lex.file, line: line})
				default:
					return p.errf("/delete-node/ at top level takes &label, &{/path} or a root child name, found %v",
						p.tok.kind)
				}
				if err := p.advance(); err != nil {
					return err
				}
				if _, err := p.expect(tokSemi); err != nil {
					return err
				}
			default:
				return p.errf("unsupported directive %s", p.tok.text)
			}

		case tokSlash:
			// root node definition: / { ... };
			if err := p.advance(); err != nil {
				return err
			}
			n, err := p.parseNodeBody("/")
			if err != nil {
				return err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return err
			}
			p.ops = append(p.ops, topOp{kind: opRootMerge, node: n})

		case tokRef:
			// &label { ... }; extends a node defined elsewhere — possibly
			// later in the file (forward reference) or, in /plugin/
			// sources, in the base tree the overlay targets.
			ref := p.tok.text
			line := p.tok.line
			if err := p.advance(); err != nil {
				return err
			}
			n, err := p.parseNodeBody("&" + ref)
			if err != nil {
				return err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return err
			}
			p.ops = append(p.ops, topOp{kind: opRefMerge, ref: ref, node: n,
				file: p.lex.file, line: line})

		case tokLabel, tokIdent:
			// top-level named node (non-standard but common in fragments)
			n, err := p.parseNamedNode()
			if err != nil {
				return err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return err
			}
			p.ops = append(p.ops, topOp{kind: opNamedNode, node: n})

		default:
			return p.errf("unexpected %v at top level", p.tok.kind)
		}
	}
}

// resolveTopLevel is the second pass: it applies the recorded top-level
// operations in document order. An operation whose label or path target
// is not resolvable yet is deferred and retried after the rest have
// been applied, which is what makes forward references work; operations
// that never resolve are an error — except in /plugin/ sources, where
// unresolved extension blocks become overlay fragments targeting the
// base tree.
func (p *parser) resolveTopLevel() error {
	pending := p.ops
	p.ops = nil
	for len(pending) > 0 {
		var deferred []topOp
		progress := false
		for _, op := range pending {
			applied, err := p.applyTopOp(op)
			if err != nil {
				return err
			}
			if applied {
				progress = true
			} else {
				deferred = append(deferred, op)
			}
		}
		if !progress {
			return p.finishUnresolved(deferred)
		}
		pending = deferred
	}
	return nil
}

// applyTopOp applies one top-level operation; ok=false means the
// operation's reference target does not exist yet and it should be
// retried once more definitions have been applied.
func (p *parser) applyTopOp(op topOp) (ok bool, err error) {
	switch op.kind {
	case opRootMerge:
		p.tree.Root.merge(op.node, parsed)
	case opNamedNode:
		p.mergeChild(p.tree.Root, op.node)
	case opRefMerge:
		target := p.lookupRef(op.ref)
		if target == nil {
			return false, nil
		}
		target.merge(op.node, parsed)
	case opRefDelete:
		target := p.lookupRef(op.ref)
		if target == nil {
			return false, nil
		}
		p.deleteNode(target)
	case opNameDelete:
		// dtc semantics: deleting an absent node is a no-op.
		p.tree.Root.RemoveChild(op.name)
	}
	return true, nil
}

// lookupRef resolves a reference target: absolute paths via Lookup,
// labels via LookupLabel.
func (p *parser) lookupRef(ref string) *Node {
	if strings.HasPrefix(ref, "/") {
		return p.tree.Lookup(ref)
	}
	return p.tree.LookupLabel(ref)
}

// finishUnresolved handles the operations left after the resolver
// stalls: in plugin mode, unresolved extension blocks become overlay
// fragments (their targets live in the base tree); everything else is
// a precise ParseError at the reference's source position.
func (p *parser) finishUnresolved(deferred []topOp) error {
	for _, op := range deferred {
		switch op.kind {
		case opRefMerge:
			if p.tree.Plugin {
				p.tree.Fragments = append(p.tree.Fragments, OverlayFragment{
					Ref:    op.ref,
					IsPath: strings.HasPrefix(op.ref, "/"),
					Node:   op.node,
				})
				continue
			}
			return &ParseError{File: op.file, Line: op.line,
				Msg: fmt.Sprintf("reference to undefined label &%s", op.ref)}
		case opRefDelete:
			if strings.HasPrefix(op.ref, "/") {
				return &ParseError{File: op.file, Line: op.line,
					Msg: fmt.Sprintf("/delete-node/ &{%s}: no node at that path", op.ref)}
			}
			if p.tree.Plugin {
				return &ParseError{File: op.file, Line: op.line,
					Msg: fmt.Sprintf("/delete-node/ &%s targeting the base tree is not supported in a /plugin/ overlay", op.ref)}
			}
			return &ParseError{File: op.file, Line: op.line,
				Msg: fmt.Sprintf("/delete-node/ &%s: reference to undefined label", op.ref)}
		default:
			// Root/named merges and name deletes always apply; reaching
			// here would be a resolver bug.
			return &ParseError{File: op.file, Line: op.line,
				Msg: "internal error: unresolvable top-level operation"}
		}
	}
	return nil
}

func (p *parser) deleteNode(target *Node) {
	parent := p.tree.Root.find(func(n *Node) bool { return slices.Contains(n.Children, target) })
	if parent != nil {
		parent.RemoveChild(target.Name)
	}
}

// parseNamedNode parses "[label:] name { ... };" with the leading
// label/ident as the current token.
func (p *parser) parseNamedNode() (*Node, error) {
	var label string
	if p.tok.kind == tokLabel {
		label = p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	n, err := p.parseNodeBody(name.text)
	if err != nil {
		return nil, err
	}
	n.Label = label
	n.Origin = Origin{File: p.lex.file, Line: name.line}
	return n, nil
}

// parseNodeBody parses "{ contents };" returning a node with the given
// name.
func (p *parser) parseNodeBody(name string) (*Node, error) {
	p.nodeDepth++
	defer func() { p.nodeDepth-- }()
	if p.nodeDepth > maxNodeDepth {
		return nil, &ParseError{File: p.lex.file, Line: p.tok.line, Err: ErrTooDeep,
			Msg: fmt.Sprintf("node %s nests deeper than %d: %v",
				name, maxNodeDepth, ErrTooDeep)}
	}
	n := &Node{Name: name, Origin: Origin{File: p.lex.file, Line: p.tok.line}, owner: parsed}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	for p.tok.kind != tokRBrace {
		switch p.tok.kind {
		case tokEOF:
			return nil, p.errf("unexpected end of file in node %s", name)

		case tokDirective:
			switch p.tok.text {
			case "/delete-node/":
				if err := p.advance(); err != nil {
					return nil, err
				}
				child, err := p.expect(tokIdent)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tokSemi); err != nil {
					return nil, err
				}
				n.RemoveChild(child.text)
				n.delNodes = append(n.delNodes, child.text)
			case "/delete-property/":
				if err := p.advance(); err != nil {
					return nil, err
				}
				prop, err := p.expect(tokIdent)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tokSemi); err != nil {
					return nil, err
				}
				n.RemoveProperty(prop.text)
				n.delProps = append(n.delProps, prop.text)
			case "/omit-if-no-ref/":
				// no-op hint; the node definition that follows parses
				// normally (see the top-level case for rationale)
				if err := p.advance(); err != nil {
					return nil, err
				}
			default:
				return nil, p.errf("unsupported directive %s in node", p.tok.text)
			}

		case tokLabel:
			child, err := p.parseNamedNode()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
			p.mergeChild(n, child)

		case tokIdent, tokNumber:
			// Could be a property ("name = ...;", "name;") or a child
			// node ("name { ... };"). Number-leading identifiers (like
			// unit-address-only names) arrive as tokNumber.
			ident := p.tok.text
			line := p.tok.line
			if err := p.advance(); err != nil {
				return nil, err
			}
			switch p.tok.kind {
			case tokEquals:
				if err := p.advance(); err != nil {
					return nil, err
				}
				val, err := p.parseValue()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tokSemi); err != nil {
					return nil, err
				}
				n.SetProperty(&Property{
					Name: ident, Value: val,
					Origin: Origin{File: p.lex.file, Line: line},
				})
			case tokSemi:
				if err := p.advance(); err != nil {
					return nil, err
				}
				n.SetProperty(&Property{
					Name:   ident,
					Origin: Origin{File: p.lex.file, Line: line},
				})
			case tokLBrace:
				child, err := p.parseNodeBody(ident)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tokSemi); err != nil {
					return nil, err
				}
				child.Origin = Origin{File: p.lex.file, Line: line}
				p.mergeChild(n, child)
			default:
				return nil, p.errf("expected '=', ';' or '{' after %q, found %v",
					ident, p.tok.kind)
			}

		default:
			return nil, p.errf("unexpected %v in node %s", p.tok.kind, name)
		}
	}
	return n, p.advance() // consume '}'
}

// mergeChild merges a freshly parsed child into parent, moving what it
// holds (see parsed).
func (p *parser) mergeChild(parent, child *Node) {
	if mine := parent.Child(child.Name); mine != nil {
		mine.merge(child, parsed)
	} else {
		parent.Children = append(parent.Children, child)
	}
}

// parseValue parses a property value: comma-separated chunks of cells
// (optionally width-prefixed with /bits/), strings, byte arrays or
// references.
func (p *parser) parseValue() (Value, error) {
	var v Value
	for {
		switch p.tok.kind {
		case tokDirective:
			if p.tok.text != "/bits/" {
				return Value{}, p.errf("unexpected directive %s in property value", p.tok.text)
			}
			if err := p.advance(); err != nil {
				return Value{}, err
			}
			width, err := p.expect(tokNumber)
			if err != nil {
				return Value{}, err
			}
			switch width.num {
			case 8, 16, 32, 64:
			default:
				return Value{}, p.errf("/bits/ width must be 8, 16, 32 or 64, got %d", width.num)
			}
			chunk, err := p.parseCells(int(width.num))
			if err != nil {
				return Value{}, err
			}
			v.Chunks = append(v.Chunks, chunk)
		case tokLAngle:
			chunk, err := p.parseCells(0)
			if err != nil {
				return Value{}, err
			}
			v.Chunks = append(v.Chunks, chunk)
		case tokString:
			v.Chunks = append(v.Chunks, Chunk{Kind: ChunkString, Str: p.tok.text})
			if err := p.advance(); err != nil {
				return Value{}, err
			}
		case tokLBracket:
			chunk, err := p.parseBytes()
			if err != nil {
				return Value{}, err
			}
			v.Chunks = append(v.Chunks, chunk)
		case tokRef:
			v.Chunks = append(v.Chunks, Chunk{Kind: ChunkRef, Ref: p.tok.text})
			if err := p.advance(); err != nil {
				return Value{}, err
			}
		default:
			return Value{}, p.errf("expected property value, found %v", p.tok.kind)
		}
		if p.tok.kind != tokComma {
			return v, nil
		}
		if err := p.advance(); err != nil {
			return Value{}, err
		}
	}
}

// parseCells parses one <...> cell array. bits is the element width
// from a /bits/ prefix (0 = default 32). Values are masked to the
// element width as in dtc; 64-bit elements keep their full value in
// Val64. Phandle references are only meaningful as u32 cells, so dtc
// (and we) reject them at any other width.
func (p *parser) parseCells(bits int) (Chunk, error) {
	if _, err := p.expect(tokLAngle); err != nil {
		return Chunk{}, err
	}
	chunk := Chunk{Kind: ChunkCells, Bits: bits}
	for p.tok.kind != tokRAngle {
		switch p.tok.kind {
		case tokNumber, tokLParen:
			val, err := p.parseCellExpr()
			if err != nil {
				return Chunk{}, err
			}
			cell := Cell{Val: uint32(val)}
			switch bits {
			case 8:
				cell.Val = uint32(uint8(val))
			case 16:
				cell.Val = uint32(uint16(val))
			case 64:
				cell.Val64 = val
			}
			chunk.CellList = append(chunk.CellList, cell)
		case tokRef:
			if bits != 0 && bits != 32 {
				return Chunk{}, p.errf("references are only allowed in 32-bit cell arrays, not /bits/ %d", bits)
			}
			chunk.CellList = append(chunk.CellList, Cell{Ref: p.tok.text})
			if err := p.advance(); err != nil {
				return Chunk{}, err
			}
		case tokEOF:
			return Chunk{}, p.errf("unterminated cell list")
		default:
			return Chunk{}, p.errf("unexpected %v in cell list", p.tok.kind)
		}
	}
	return chunk, p.advance() // consume '>'
}

// parseCellExpr parses an integer expression with dtc's full C
// operator set: numbers (including character literals), parentheses,
// the arithmetic/bitwise operators + - * / % << >> & | ^ ~, the
// comparisons < > <= >= == !=, logical ! && ||, and the ternary ?:,
// all at C precedence. Like dtc, arithmetic is unsigned 64-bit and
// both ternary branches are evaluated eagerly.
func (p *parser) parseCellExpr() (uint64, error) {
	return p.parseTernary()
}

// parseTernary parses "cond ? a : b" (right-associative, lowest
// precedence); "?" and ":" are deliberately absent from the binary
// precedence table so parseBinary stops at them.
func (p *parser) parseTernary() (uint64, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return 0, err
	}
	if p.tok.kind != tokOp || p.tok.text != "?" {
		return cond, nil
	}
	if err := p.advance(); err != nil {
		return 0, err
	}
	a, err := p.parseTernary()
	if err != nil {
		return 0, err
	}
	if p.tok.kind != tokOp || p.tok.text != ":" {
		return 0, p.errf("expected ':' in ternary expression, found %v", p.tok.kind)
	}
	if err := p.advance(); err != nil {
		return 0, err
	}
	b, err := p.parseTernary()
	if err != nil {
		return 0, err
	}
	if cond != 0 {
		return a, nil
	}
	return b, nil
}

var precedence = map[string]int{
	"||": 1, "&&": 2,
	"|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func boolToU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (p *parser) parseBinary(minPrec int) (uint64, error) {
	left, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	for p.tok.kind == tokOp {
		prec, ok := precedence[p.tok.text]
		if !ok || prec < minPrec {
			break
		}
		op := p.tok.text
		if err := p.advance(); err != nil {
			return 0, err
		}
		right, err := p.parseBinary(prec + 1)
		if err != nil {
			return 0, err
		}
		switch op {
		case "+":
			left += right
		case "-":
			left -= right
		case "*":
			left *= right
		case "/":
			if right == 0 {
				return 0, p.errf("division by zero in cell expression")
			}
			left /= right
		case "%":
			if right == 0 {
				return 0, p.errf("modulo by zero in cell expression")
			}
			left %= right
		case "<<":
			left <<= right & 63
		case ">>":
			left >>= right & 63
		case "&":
			left &= right
		case "|":
			left |= right
		case "^":
			left ^= right
		case "<":
			left = boolToU64(left < right)
		case ">":
			left = boolToU64(left > right)
		case "<=":
			left = boolToU64(left <= right)
		case ">=":
			left = boolToU64(left >= right)
		case "==":
			left = boolToU64(left == right)
		case "!=":
			left = boolToU64(left != right)
		case "&&":
			left = boolToU64(left != 0 && right != 0)
		case "||":
			left = boolToU64(left != 0 || right != 0)
		}
	}
	return left, nil
}

func (p *parser) parseUnary() (uint64, error) {
	switch p.tok.kind {
	case tokOp:
		switch p.tok.text {
		case "-":
			if err := p.advance(); err != nil {
				return 0, err
			}
			v, err := p.parseUnary()
			return -v, err
		case "~":
			if err := p.advance(); err != nil {
				return 0, err
			}
			v, err := p.parseUnary()
			return ^v, err
		case "!":
			if err := p.advance(); err != nil {
				return 0, err
			}
			v, err := p.parseUnary()
			return boolToU64(v == 0), err
		}
		return 0, p.errf("unexpected operator %q", p.tok.text)
	case tokNumber:
		v := p.tok.num
		return v, p.advance()
	case tokLParen:
		if err := p.advance(); err != nil {
			return 0, err
		}
		v, err := p.parseTernary()
		if err != nil {
			return 0, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return 0, err
		}
		return v, nil
	default:
		return 0, p.errf("expected number, found %v", p.tok.kind)
	}
}

func (p *parser) parseBytes() (Chunk, error) {
	if _, err := p.expect(tokLBracket); err != nil {
		return Chunk{}, err
	}
	chunk := Chunk{Kind: ChunkBytes}
	for p.tok.kind != tokRBracket {
		var hexText string
		switch p.tok.kind {
		case tokNumber:
			hexText = p.tok.text
			hexText = strings.TrimPrefix(strings.TrimPrefix(hexText, "0x"), "0X")
		case tokIdent:
			hexText = p.tok.text
		case tokEOF:
			return Chunk{}, p.errf("unterminated byte array")
		default:
			return Chunk{}, p.errf("unexpected %v in byte array", p.tok.kind)
		}
		if len(hexText)%2 != 0 {
			return Chunk{}, p.errf("odd-length hex run %q in byte array", hexText)
		}
		for i := 0; i < len(hexText); i += 2 {
			var b byte
			for _, c := range []byte(hexText[i : i+2]) {
				var d byte
				switch {
				case c >= '0' && c <= '9':
					d = c - '0'
				case c >= 'a' && c <= 'f':
					d = c - 'a' + 10
				case c >= 'A' && c <= 'F':
					d = c - 'A' + 10
				default:
					return Chunk{}, p.errf("invalid hex byte %q", hexText[i:i+2])
				}
				b = b<<4 | d
			}
			chunk.Bytes = append(chunk.Bytes, b)
		}
		if err := p.advance(); err != nil {
			return Chunk{}, err
		}
	}
	return chunk, p.advance() // consume ']'
}
