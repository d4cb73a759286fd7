package schema

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// Fingerprint returns a stable content hash of the schema set: two sets
// with the same schemas (IDs, selectors, required lists, property
// constraints) produce the same fingerprint regardless of construction
// order. It identifies the schema-set component of a check-cache key
// (see internal/checkcache), so every field that can change a
// validation verdict must be folded in here. It is computed on the
// first call; the set must not be modified after it.
func (s *Set) Fingerprint() string {
	s.fpOnce.Do(func() { s.fp = s.fingerprint() })
	return s.fp
}

func (s *Set) fingerprint() string {
	dumps := make([]string, 0, len(s.Schemas))
	for _, sc := range s.Schemas {
		dumps = append(dumps, schemaDump(sc))
	}
	sort.Strings(dumps)
	h := sha256.New()
	for _, d := range dumps {
		h.Write([]byte(d))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// schemaDump serializes one schema injectively: every variable-length
// string is length-prefixed and lists carry an element count, so no
// two distinct schemas dump identically (values containing ',' or ';'
// cannot shift field boundaries the way a plain join could).
func schemaDump(sc *Schema) string {
	var b strings.Builder
	str := func(s string) { fmt.Fprintf(&b, "%d:%s", len(s), s) }
	list := func(ss []string) {
		fmt.Fprintf(&b, "#%d", len(ss))
		for _, s := range ss {
			str(s)
		}
	}
	b.WriteString("id=")
	str(sc.ID)
	b.WriteString("select=")
	str(sc.Select.NodeName)
	list(sc.Select.Compatible)
	b.WriteString("required=")
	list(sc.Required)
	fmt.Fprintf(&b, "addl=%v;", sc.AdditionalProperties)
	names := make([]string, 0, len(sc.Properties))
	for name := range sc.Properties {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ps := sc.Properties[name]
		b.WriteString("prop=")
		str(name)
		fmt.Fprintf(&b, "type=%d,min=%d,max=%d,reglike=%v,const=",
			ps.Type, ps.MinItems, ps.MaxItems, ps.RegLike)
		str(ps.Const)
		b.WriteString("enum=")
		list(ps.Enum)
		if ps.ConstU32 != nil {
			fmt.Fprintf(&b, "constu32=%d", *ps.ConstU32)
		}
		if ps.Pattern != nil {
			b.WriteString("pattern=")
			str(ps.Pattern.String())
		}
		b.WriteByte(';')
	}
	return b.String()
}
