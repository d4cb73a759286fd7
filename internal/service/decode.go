package service

import (
	"fmt"
	"io"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Request decoding. /check and /lint bodies are read once, under the
// body cap, into a pooled buffer and decoded by one walk over its
// bytes that fills the request struct field by field. A body decodes
// to exactly what json.Unmarshal makes of it, and is rejected exactly
// when json.Unmarshal rejects it (TestDecodeRequestMatchesStdlib and
// FuzzDecodeRequest hold it): keys match exactly, then under
// encoding/json's case fold; the last of duplicate keys wins, maps
// merge and arrays decode into the slice already there; null leaves a
// string or bool alone and clears a map or slice; unknown keys are
// validated and skipped, nesting at most maxJSONDepth deep; invalid
// UTF-8 and lone surrogates become U+FFFD. Only whitespace may follow
// the top-level value. encoding/json scans a body once to find the
// value's end and again to decode it, unquoting through reflection;
// here string runs are copied in bulk and unescaped as they are read.

// maxJSONDepth is encoding/json's nesting limit: deeper bodies are
// rejected, however the containers are spelled.
const maxJSONDepth = 10000

// requestBody is a request type the decoder fills: fields lists its
// JSON keys and decodeField decodes the value at the decoder's offset
// into the field at that index of the list.
type requestBody interface {
	fields() *fieldTable
	decodeField(d *reqDecoder, field int) error
}

// fieldTable holds a request type's JSON keys, as written and in the
// folded form encoding/json matches them in when no key is equal.
type fieldTable struct {
	names, folded []string
}

func newFieldTable(names ...string) *fieldTable {
	t := &fieldTable{names: names}
	for _, n := range names {
		t.folded = append(t.folded, string(appendFoldedName(nil, []byte(n))))
	}
	return t
}

// lookup returns the index of the field key names, or -1.
func (t *fieldTable) lookup(key []byte) int {
	for i, n := range t.names {
		if string(key) == n {
			return i
		}
	}
	var arr [32]byte
	folded := appendFoldedName(arr[:0], key)
	for i, n := range t.folded {
		if string(folded) == n {
			return i
		}
	}
	return -1
}

// appendFoldedName appends key folded as encoding/json folds field
// names: ASCII letters upper-cased, every other rune mapped to the
// smallest rune of its simple case-fold orbit, so that 'ſ' (U+017F)
// matches 's' and the Kelvin sign (U+212A) matches 'k'.
func appendFoldedName(out, key []byte) []byte {
	for i := 0; i < len(key); {
		if c := key[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out
}

var checkFields = newFieldTable("coreDts", "includes", "defines", "preprocess",
	"deltas", "featureModel", "vms", "mode", "trace")

func (*CheckRequest) fields() *fieldTable { return checkFields }

func (req *CheckRequest) decodeField(d *reqDecoder, field int) error {
	switch field {
	case 0:
		return d.str(&req.CoreDTS)
	case 1:
		return d.strMap(&req.Includes)
	case 2:
		return d.strMap(&req.Defines)
	case 3:
		return d.boolean(&req.Preprocess)
	case 4:
		return d.str(&req.Deltas)
	case 5:
		return d.str(&req.FeatureModel)
	case 6:
		return d.vms(&req.VMs)
	case 7:
		return d.str(&req.Mode)
	}
	return d.boolean(&req.Trace)
}

var lintFields = newFieldTable("dts", "includes", "defines", "preprocess", "semantic")

func (*LintRequest) fields() *fieldTable { return lintFields }

func (req *LintRequest) decodeField(d *reqDecoder, field int) error {
	switch field {
	case 0:
		return d.str(&req.DTS)
	case 1:
		return d.strMap(&req.Includes)
	case 2:
		return d.strMap(&req.Defines)
	case 3:
		return d.boolean(&req.Preprocess)
	}
	return d.boolean(&req.Semantic)
}

// bodyBuf is one request's body and the decoder that walks it.
type bodyBuf struct {
	raw []byte
	d   reqDecoder
}

var bodyBufPool = sync.Pool{New: func() any { return new(bodyBuf) }}

// readRequest reads all of r into a pooled buffer and decodes it into
// v. The decoded strings are copies: nothing in v refers to the buffer.
func readRequest(r io.Reader, v requestBody) error {
	bb := bodyBufPool.Get().(*bodyBuf)
	defer func() {
		bb.d.data = nil
		if cap(bb.raw) <= maxPooledJSONBuf && cap(bb.d.scratch) <= maxPooledJSONBuf {
			bodyBufPool.Put(bb)
		}
	}()
	var err error
	if bb.raw, err = readAll(bb.raw[:0], r); err != nil {
		return err
	}
	return bb.d.decode(bb.raw, v)
}

// readAll appends all of r to dst, as io.ReadAll does to a new slice.
func readAll(dst []byte, r io.Reader) ([]byte, error) {
	if cap(dst) == 0 {
		dst = make([]byte, 0, 512)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// reqDecoder walks one body. scratch holds the unescaped bytes of the
// string being read and stack the closing brackets of the containers
// skipValue is inside; both keep their capacity between bodies.
type reqDecoder struct {
	data    []byte
	off     int
	scratch []byte
	stack   []byte
}

// decode decodes data, one JSON value and optional whitespace, into v.
func (d *reqDecoder) decode(data []byte, v requestBody) error {
	d.data, d.off = data, 0
	d.skipSpace()
	var err error
	switch d.peek() {
	case 'n':
		err = d.literal("null")
	case '{':
		err = d.object(v)
	default:
		err = d.unexpected("an object")
	}
	if err != nil {
		return err
	}
	d.skipSpace()
	if d.off < len(d.data) {
		return d.errorf("unexpected %q after the top-level value", d.data[d.off])
	}
	return nil
}

// errorf reports a body that is not JSON, or not JSON of the request's
// shape, with the offset of the byte that gave it away.
func (d *reqDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf(format+" at offset %d", append(args, d.off)...)
}

func (d *reqDecoder) unexpected(want string) error {
	if d.off >= len(d.data) {
		return d.errorf("unexpected end of input, want %s", want)
	}
	return d.errorf("unexpected %q, want %s", d.data[d.off], want)
}

// peek returns the byte at the offset, or 0 at the end of the body.
func (d *reqDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *reqDecoder) skipSpace() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

func (d *reqDecoder) literal(word string) error {
	if len(d.data)-d.off < len(word) || string(d.data[d.off:d.off+len(word)]) != word {
		return d.unexpected(word)
	}
	d.off += len(word)
	return nil
}

// colon steps over the ':' after an object key and the whitespace
// around it.
func (d *reqDecoder) colon() error {
	d.skipSpace()
	if d.peek() != ':' {
		return d.unexpected("':'")
	}
	d.off++
	d.skipSpace()
	return nil
}

// next steps over what follows a container's element: it reports true
// after a ',' (and the whitespace after it) and false after the
// container's closing bracket.
func (d *reqDecoder) next(closing byte) (bool, error) {
	d.skipSpace()
	switch d.peek() {
	case ',':
		d.off++
		d.skipSpace()
		return true, nil
	case closing:
		d.off++
		return false, nil
	}
	return false, d.unexpected("',' or '" + string(closing) + "'")
}

// object decodes the object at the offset into v's fields.
func (d *reqDecoder) object(v requestBody) error {
	t := v.fields()
	return d.members(func(key []byte) error {
		if field := t.lookup(key); field >= 0 {
			return v.decodeField(d, field)
		}
		return d.skipValue(1)
	})
}

// members steps through the object at the offset, calling member with
// each key, unquoted, and the offset at the key's value. The key is
// valid until member reads a string.
func (d *reqDecoder) members(member func(key []byte) error) error {
	d.off++
	d.skipSpace()
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.unexpected("an object key")
		}
		key, err := d.unquote()
		if err != nil {
			return err
		}
		if err := d.colon(); err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		if more, err := d.next('}'); !more {
			return err
		}
	}
}

func (d *reqDecoder) str(dst *string) error {
	switch d.peek() {
	case '"':
		s, err := d.unquote()
		if err != nil {
			return err
		}
		*dst = string(s)
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.unexpected("a string")
}

func (d *reqDecoder) boolean(dst *bool) error {
	switch d.peek() {
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.unexpected("a boolean")
}

// strMap decodes an object of strings into *dst, adding to the map
// already there; null clears it.
func (d *reqDecoder) strMap(dst *map[string]string) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '{':
	default:
		return d.unexpected("an object")
	}
	if *dst == nil {
		*dst = make(map[string]string)
	}
	m := *dst
	return d.members(func(key []byte) error {
		k := string(key)
		var val string
		if err := d.str(&val); err != nil {
			return err
		}
		m[k] = val
		return nil
	})
}

// vms decodes the per-VM feature lists; null clears the list, or one
// VM's features.
func (d *reqDecoder) vms(dst *[][]string) error {
	return decodeSlice(d, dst, func(vm *[]string) error {
		return decodeSlice(d, vm, d.str)
	})
}

// decodeSlice decodes an array into *dst as encoding/json does: the
// elements decode into the slice already there, reusing its backing
// array (so a null element keeps what the array held at that index),
// the slice is cut to the array's length, and [] makes it empty but
// not nil. null makes *dst nil.
func decodeSlice[T any](d *reqDecoder, dst *[]T, elem func(*T) error) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.unexpected("an array")
	}
	d.off++
	d.skipSpace()
	s := *dst
	i := 0
	if d.peek() == ']' {
		d.off++
	} else {
		for {
			if i == cap(s) {
				var zero T
				s = append(s, zero)
			} else if i == len(s) {
				s = s[:i+1]
			}
			if err := elem(&s[i]); err != nil {
				return err
			}
			i++
			more, err := d.next(']')
			if err != nil {
				return err
			}
			if !more {
				break
			}
		}
	}
	if i == 0 {
		s = []T{}
	}
	*dst = s[:i]
	return nil
}

// skipValue validates the value at the offset, which sits inside depth
// open containers, and steps over it. It keeps the closing brackets
// it still expects on d.stack rather than recursing, so hostile
// nesting costs one byte of stack per level up to maxJSONDepth.
func (d *reqDecoder) skipValue(depth int) error {
	stack := d.stack[:0]
	defer func() { d.stack = stack }()
	for {
		switch c := d.peek(); c {
		case '{', '[':
			if depth+len(stack) >= maxJSONDepth {
				return d.errorf("nesting exceeds %d levels", maxJSONDepth)
			}
			closing := c + 2 // '{'+2 is '}', '['+2 is ']'
			d.off++
			d.skipSpace()
			if d.peek() != closing {
				stack = append(stack, closing)
				if closing == '}' {
					if err := d.skipKey(); err != nil {
						return err
					}
				}
				continue
			}
			d.off++
		case '"':
			if _, err := d.unquote(); err != nil {
				return err
			}
		case 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			if err := d.skipNumber(); err != nil {
				return err
			}
		}
		// A value ended: close the containers it completes, then step
		// to the next element of the innermost one still open.
		for {
			if len(stack) == 0 {
				return nil
			}
			closing := stack[len(stack)-1]
			more, err := d.next(closing)
			if err != nil {
				return err
			}
			if more {
				if closing == '}' {
					if err := d.skipKey(); err != nil {
						return err
					}
				}
				break
			}
			stack = stack[:len(stack)-1]
		}
	}
}

// skipKey steps over an object key and the ':' after it.
func (d *reqDecoder) skipKey() error {
	if d.peek() != '"' {
		return d.unexpected("an object key")
	}
	if _, err := d.unquote(); err != nil {
		return err
	}
	return d.colon()
}

// skipNumber steps over a number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *reqDecoder) skipNumber() error {
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		d.skipDigits()
	default:
		return d.unexpected("a value")
	}
	if d.peek() == '.' {
		d.off++
		if err := d.digits(); err != nil {
			return err
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		return d.digits()
	}
	return nil
}

// digits steps over one or more decimal digits.
func (d *reqDecoder) digits() error {
	if c := d.peek(); c < '0' || c > '9' {
		return d.unexpected("a digit")
	}
	d.skipDigits()
	return nil
}

func (d *reqDecoder) skipDigits() {
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		d.off++
	}
}

// plainByte marks the bytes a string literal holds as themselves:
// printable ASCII other than '"' and '\'.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unquote reads the string literal at the offset and returns its
// contents unescaped, with each invalid UTF-8 byte and each lone
// surrogate escape replaced by U+FFFD. The result is a slice of the
// body when the literal needed no change and of d.scratch otherwise;
// it is valid until the next call.
func (d *reqDecoder) unquote() ([]byte, error) {
	data := d.data
	start := d.off + 1
	i, run := start, start // run: start of the bytes not yet copied to out
	var out []byte
	escaped := false // out holds the contents so far
	for {
		for i < len(data) && plainByte[data[i]] {
			i++
		}
		if i >= len(data) {
			d.off = len(data)
			return nil, d.unexpected("'\"'")
		}
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			if !escaped {
				return data[start:i], nil
			}
			out = append(out, data[run:i]...)
			d.scratch = out
			return out, nil
		case c == '\\':
			if !escaped {
				escaped, out = true, d.scratch[:0]
			}
			out = append(out, data[run:i]...)
			n, err := d.unescape(&out, i)
			if err != nil {
				return nil, err
			}
			i += n
			run = i
		case c < ' ':
			d.off = i
			return nil, d.errorf("control character %q in string", c)
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
			if !escaped {
				escaped, out = true, d.scratch[:0]
			}
			out = append(out, data[run:i]...)
			out = utf8.AppendRune(out, utf8.RuneError)
			i++
			run = i
		}
	}
}

// unescape appends the escape sequence at data[i] to *out and returns
// its length. A \u escape of a high surrogate followed by one of a low
// surrogate is one rune; any other surrogate escape is U+FFFD.
func (d *reqDecoder) unescape(out *[]byte, i int) (int, error) {
	data := d.data
	if i+1 >= len(data) {
		d.off = len(data)
		return 0, d.unexpected("an escape")
	}
	var c byte
	switch data[i+1] {
	case '"', '\\', '/':
		c = data[i+1]
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		r := hex4(data[i+2:])
		if r < 0 {
			d.off = i
			return 0, d.errorf("invalid \\u escape")
		}
		if utf16.IsSurrogate(r) {
			if low := i + 6; len(data)-low >= 6 && data[low] == '\\' && data[low+1] == 'u' {
				if pair := utf16.DecodeRune(r, hex4(data[low+2:])); pair != unicode.ReplacementChar {
					*out = utf8.AppendRune(*out, pair)
					return 12, nil
				}
			}
			r = unicode.ReplacementChar
		}
		*out = utf8.AppendRune(*out, r)
		return 6, nil
	default:
		d.off = i
		return 0, d.errorf("invalid escape %q", data[i:i+2])
	}
	*out = append(*out, c)
	return 2, nil
}

// hex4 decodes the four hex digits b starts with, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
