package service

import (
	"net/http"
	"slices"
	"strconv"
	"unicode/utf8"

	"llhsc/internal/baogen"
	"llhsc/internal/constraints"
	"llhsc/internal/core"
)

// The /check reply. It is the one large reply on the hot path (about
// 27 KB for the 8 VMs of the synthetic line), so it is written in one
// pass from the report into the pooled reply buffer instead of being
// copied into a CheckResponse and marshalled: the hypervisor artifacts
// render into a pooled scratch buffer and are escaped from there, and
// every other value is escaped straight from the report. The bytes are
// those json.Encoder with SetIndent("", "  ") writes for the
// CheckResponse a report converts to — the same field order, omitempty
// rules, sorted stats.families keys and HTML, U+2028/U+2029 and
// invalid-UTF-8 escaping. TestCheckReplyMatchesStdlib and
// FuzzWriteCheckReply hold it to that encoding. The trace subtree,
// present only when a request asks for it, goes through the compact
// encoder and appendIndent as every other reply does.

// writeCheckReply writes the 200 reply of a finished /check run with
// one Write.
func writeCheckReply(w http.ResponseWriter, res *checkResult) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	jb := jsonBufPool.Get().(*jsonBuf)
	defer jb.release()
	jb.out = jb.appendCheckReply(jb.out[:0], res)
	_, _ = w.Write(jb.out)
}

// appendCheckReply appends the /check reply for res to dst.
func (jb *jsonBuf) appendCheckReply(dst []byte, res *checkResult) []byte {
	r := res.report
	w := replyWriter{b: dst}
	w.open('{')
	w.key("ok")
	w.bool(r.OK())
	if len(r.Allocation) > 0 {
		w.key("allocation")
		w.violations(r.Allocation)
	}
	if len(r.Lifted) > 0 {
		w.key("lifted")
		w.open('[')
		for i := range r.Lifted {
			f := &r.Lifted[i]
			w.next()
			w.open('{')
			w.key("family")
			w.str(f.Family)
			w.key("violation")
			w.violation(&f.Violation)
			w.key("config")
			w.strs(f.Config.Sorted())
			w.close('}')
		}
		w.close(']')
	}
	w.key("vms")
	if len(r.VMs) == 0 {
		w.null()
	} else {
		w.open('[')
		for i := range r.VMs {
			vm := &r.VMs[i]
			w.next()
			w.product(vm.Name, vm.Trace, vm.DTS, vm.Violations)
		}
		w.close(']')
	}
	w.key("platform")
	w.product("platform", r.Platform.Trace, r.Platform.DTS, r.Platform.Violations)
	if a := &r.Artifacts; a.Platform != nil {
		jb.artifact = a.Platform.AppendPlatformC(jb.artifact[:0])
		w.key("platformC")
		w.b = appendJSONString(w.b, jb.artifact)
		jb.artifact = a.Config.AppendConfigC(jb.artifact[:0])
		w.key("configC")
		w.b = appendJSONString(w.b, jb.artifact)
		jb.artifact = baogen.AppendJailhouseRootC(jb.artifact[:0], a.Platform)
		w.key("jailhouseRootC")
		w.b = appendJSONString(w.b, jb.artifact)
		w.key("jailhouseCellsC")
		w.open('[')
		for _, vm := range a.Config.VMs {
			jb.artifact = baogen.AppendJailhouseCellC(jb.artifact[:0], vm)
			w.next()
			w.b = appendJSONString(w.b, jb.artifact)
		}
		w.close(']')
		// No QEMU argument needs escaping, so the arguments go in as
		// they are, quoted and separated like array elements.
		w.key("qemuArgs")
		w.open('[')
		w.next()
		w.b = append(w.b, '"')
		w.b = baogen.AppendQEMUArgs(w.b, a.Platform, core.QEMUArch, qemuArgSep)
		w.b = append(w.b, '"')
		w.close(']')
	}
	if res.requestID != "" {
		w.key("requestId")
		w.str(res.requestID)
	}
	w.key("stats")
	w.runStats(&r.Stats)
	if res.trace != nil {
		w.key("trace")
		jb.compact.Reset()
		if err := jb.enc.Encode(res.trace); err != nil {
			w.null() // span times are finite, so this is unreachable
		} else {
			compact := jb.compact.Bytes()
			w.b = appendIndent(w.b, compact[:len(compact)-1], w.depth) // without the trailing newline
		}
	}
	w.close('}')
	return append(w.b, '\n') // as json.Encoder ends a document
}

// replyWriter appends one document indented as json.Indent with two
// spaces writes it.
type replyWriter struct {
	b     []byte
	depth int
	more  bool // the innermost open container already holds a member
}

// open starts an object or array.
func (w *replyWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.more = false
}

// close ends the innermost container; an empty one stays {} or [].
func (w *replyWriter) close(c byte) {
	w.depth--
	if w.more {
		w.b = appendNewline(w.b, w.depth)
	}
	w.b = append(w.b, c)
	w.more = true
}

// next starts the innermost container's next member on its own line.
func (w *replyWriter) next() {
	if w.more {
		w.b = append(w.b, ',')
	}
	w.b = appendNewline(w.b, w.depth)
	w.more = true
}

// qemuArgSep separates two elements of the reply's qemuArgs array,
// two levels deep: a closing quote, a comma, the indent and an opening
// quote.
const qemuArgSep = "\",\n    \""

// key starts an object member; k needs no escaping.
func (w *replyWriter) key(k string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':', ' ')
}

func (w *replyWriter) null() { w.b = append(w.b, "null"...) }

func (w *replyWriter) bool(v bool) { w.b = strconv.AppendBool(w.b, v) }

func (w *replyWriter) int(v int) { w.b = strconv.AppendInt(w.b, int64(v), 10) }

func (w *replyWriter) str(s string) { w.b = appendJSONString(w.b, s) }

// strs writes a string array: null for a nil slice, [] for an empty one.
func (w *replyWriter) strs(ss []string) {
	if ss == nil {
		w.null()
		return
	}
	w.open('[')
	for _, s := range ss {
		w.next()
		w.str(s)
	}
	w.close(']')
}

// product writes one VMResult: a VM's or the platform's outcome.
func (w *replyWriter) product(name string, deltas []string, dts string, vs []constraints.Violation) {
	w.open('{')
	w.key("name")
	w.str(name)
	w.key("deltas")
	w.strs(deltas)
	w.key("dts")
	w.str(dts)
	if len(vs) > 0 {
		w.key("violations")
		w.violations(vs)
	}
	w.close('}')
}

func (w *replyWriter) violations(vs []constraints.Violation) {
	w.open('[')
	for i := range vs {
		w.next()
		w.violation(&vs[i])
	}
	w.close(']')
}

// violation writes a Violation: the constraint violation with its
// blamed delta.
func (w *replyWriter) violation(v *constraints.Violation) {
	w.open('{')
	w.optStr("path", v.Path)
	w.optStr("property", v.Property)
	w.key("rule")
	w.str(v.Rule)
	w.key("message")
	w.str(v.Message)
	w.optStr("delta", v.Origin.Delta)
	w.close('}')
}

// optStr writes an omitempty string member.
func (w *replyWriter) optStr(k, s string) {
	if s != "" {
		w.key(k)
		w.str(s)
	}
}

// optInt writes an omitempty integer member.
func (w *replyWriter) optInt(k string, v int) {
	if v != 0 {
		w.key(k)
		w.int(v)
	}
}

// optUint writes an omitempty unsigned integer member.
func (w *replyWriter) optUint(k string, v uint64) {
	if v != 0 {
		w.key(k)
		w.b = strconv.AppendUint(w.b, v, 10)
	}
}

// runStats writes core.RunStats, its families in key order.
func (w *replyWriter) runStats(st *core.RunStats) {
	w.open('{')
	if len(st.Families) > 0 {
		w.key("families")
		w.open('{')
		var buf [16]string
		names := buf[:0]
		for name := range st.Families {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			fs := st.Families[name]
			w.next()
			w.str(name)
			w.b = append(w.b, ':', ' ')
			w.open('{')
			w.key("checks")
			w.int(fs.Checks)
			w.optInt("pairs", fs.Pairs)
			w.optInt("pairsPruned", fs.PairsPruned)
			w.optInt("solverCalls", fs.SolverCalls)
			w.optInt("wordDecided", fs.WordDecided)
			w.optUint("conflicts", fs.Conflicts)
			w.optUint("propagations", fs.Propagations)
			w.optUint("restarts", fs.Restarts)
			w.close('}')
		}
		w.close('}')
	}
	w.key("cacheHits")
	w.int(st.CacheHits)
	w.key("cacheMisses")
	w.int(st.CacheMisses)
	if l := st.Lifted; l != nil {
		w.key("lifted")
		w.open('{')
		w.optInt("products", l.Products)
		w.key("queries")
		w.int(l.Queries)
		w.key("pruned")
		w.int(l.Pruned)
		w.optInt("wordDecided", l.WordDecided)
		w.optInt("regions", l.Regions)
		w.optInt("contexts", l.Contexts)
		w.key("findings")
		w.int(l.Findings)
		w.key("sessions")
		w.int(l.Sessions)
		w.close('}')
	}
	w.close('}')
}

// htmlSafe marks the ASCII bytes encoding/json writes unescaped with
// HTML escaping on: space to DEL but ", \, <, > and &.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"\<>&` {
		safe[c] = false
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as encoding/json writes a string with
// HTML escaping on: quoted; \", \\, \b, \f, \n, \r and \t for those
// bytes; \u00XX for the other control bytes and <, > and &; \ufffd for
// each byte of invalid UTF-8; and \u2028 and \u2029 for those two
// separators. Everything else is copied in runs.
func appendJSONString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := decodeRune(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// decodeRune decodes the first rune of s, string or bytes, without
// converting the whole of s.
func decodeRune[S string | []byte](s S) (rune, int) {
	if len(s) > utf8.UTFMax {
		s = s[:utf8.UTFMax]
	}
	var buf [utf8.UTFMax]byte
	return utf8.DecodeRune(buf[:copy(buf[:], s)])
}
