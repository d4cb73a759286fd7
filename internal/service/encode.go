package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
)

// Response encoding. Every reply but /check's — /lint, /healthz,
// /example and the error envelopes — is marshalled compactly by
// encoding/json into a pooled buffer and then indented in one linear
// pass. The result is byte for byte what json.Encoder with
// SetIndent("", "  ") writes (TestWriteJSONMatchesStdlibIndent and
// FuzzWriteJSON hold it), so the pinned /healthz shape, the CI greps
// and every client see the same bytes; the stdlib indenter re-runs its
// scanner state machine over every byte, string bodies included, where
// appendIndent copies each string literal in bulk. The /check reply is
// written straight from the report into the same pooled buffers
// (reply.go).

// maxPooledJSONBuf caps the buffers returned to the pool: one huge
// reply must not pin its buffers for the life of the process.
const maxPooledJSONBuf = 1 << 20

// jsonBuf holds one reply's compact encoding and its indented form,
// and the text of the artifact a /check reply is writing.
type jsonBuf struct {
	compact  bytes.Buffer
	enc      *json.Encoder // writes into compact, HTML escaping on
	out      []byte
	artifact []byte
}

var jsonBufPool = sync.Pool{New: func() any {
	jb := new(jsonBuf)
	jb.enc = json.NewEncoder(&jb.compact)
	return jb
}}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	jb := jsonBufPool.Get().(*jsonBuf)
	defer jb.release()
	jb.compact.Reset()
	// Encoding of our plain structs cannot fail; ignore the writer error
	// (the client has gone away).
	if err := jb.enc.Encode(v); err != nil {
		return
	}
	jb.out = appendIndent(jb.out[:0], jb.compact.Bytes(), 0)
	_, _ = w.Write(jb.out)
}

// release returns jb to the pool unless one of its buffers grew too
// large to keep.
func (jb *jsonBuf) release() {
	if jb.compact.Cap() <= maxPooledJSONBuf && cap(jb.out) <= maxPooledJSONBuf &&
		cap(jb.artifact) <= maxPooledJSONBuf {
		jsonBufPool.Put(jb)
	}
}

// appendIndent appends src, a compact JSON document as json.Encoder
// writes it (no whitespace outside strings but the trailing newline),
// to dst indented as json.Indent(dst, src, "", "  ") would: a newline
// and two spaces per level after each opening bracket and comma, a
// space after each colon, and empty objects and arrays kept as {} and
// []. Bytes that are not punctuation, the trailing newline included,
// are copied unchanged. depth is the nesting level src is a value at:
// 0 for a whole document.
func appendIndent(dst, src []byte, depth int) []byte {
	needIndent := false // an opening bracket awaits its first element
	for i := 0; i < len(src); i++ {
		c := src[i]
		if needIndent && c != '}' && c != ']' {
			needIndent = false
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '"':
			end := closingQuote(src, i)
			dst = append(dst, src[i:end+1]...)
			i = end
		case '{', '[':
			needIndent = true
			dst = append(dst, c)
		case ',':
			dst = append(dst, c)
			dst = appendNewline(dst, depth)
		case ':':
			dst = append(dst, c, ' ')
		case '}', ']':
			if needIndent {
				needIndent = false
			} else {
				depth--
				dst = appendNewline(dst, depth)
			}
			dst = append(dst, c)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// closingQuote returns the index of the quote closing the string
// literal that opens at src[open], skipping quotes escaped by an odd
// run of backslashes, or len(src)-1 if the literal is unterminated.
func closingQuote(src []byte, open int) int {
	for j := open + 1; ; j++ {
		k := bytes.IndexByte(src[j:], '"')
		if k < 0 {
			return len(src) - 1
		}
		j += k
		backslashes := 0
		for p := j - 1; p > open && src[p] == '\\'; p-- {
			backslashes++
		}
		if backslashes%2 == 0 {
			return j
		}
	}
}

func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
