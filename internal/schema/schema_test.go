package schema

import (
	"regexp"
	"strings"
	"testing"

	"llhsc/internal/dts"
)

func mustParseDTS(t *testing.T, src string) *dts.Tree {
	t.Helper()
	tree, err := dts.Parse("test.dts", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return tree
}

const goodDTS = `
/dts-v1/;
/ {
	#address-cells = <2>;
	#size-cells = <2>;

	memory@40000000 {
		device_type = "memory";
		reg = <0x0 0x40000000 0x0 0x20000000
		       0x0 0x60000000 0x0 0x20000000>;
	};

	cpus {
		#address-cells = <1>;
		#size-cells = <0>;
		cpu@0 {
			compatible = "arm,cortex-a53";
			device_type = "cpu";
			enable-method = "psci";
			reg = <0x0>;
		};
	};

	uart@20000000 {
		compatible = "ns16550a";
		reg = <0x0 0x20000000 0x0 0x1000>;
	};
};
`

func TestValidateCleanTree(t *testing.T) {
	tree := mustParseDTS(t, goodDTS)
	vs := StandardSet().Validate(tree)
	if len(vs) != 0 {
		t.Errorf("clean tree produced violations: %v", vs)
	}
}

func TestMissingRequiredProperty(t *testing.T) {
	tree := mustParseDTS(t, `
/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@40000000 {
		reg = <0x0 0x1000>;
	};
};
`)
	vs := StandardSet().Validate(tree)
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly the missing device_type", vs)
	}
	v := vs[0]
	if v.Property != "device_type" || !strings.Contains(v.Message, "required") {
		t.Errorf("violation = %+v", v)
	}
	if v.SchemaID != "memory.yaml" {
		t.Errorf("schema = %s", v.SchemaID)
	}
}

func TestConstViolation(t *testing.T) {
	tree := mustParseDTS(t, `
/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@0 {
		device_type = "ram";
		reg = <0x0 0x1000>;
	};
};
`)
	vs := StandardSet().Validate(tree)
	if len(vs) != 1 || !strings.Contains(vs[0].Message, `const "memory"`) {
		t.Errorf("violations = %v", vs)
	}
}

func TestRegArity(t *testing.T) {
	// 3 cells with #address-cells=1, #size-cells=1: not a multiple of 2.
	tree := mustParseDTS(t, `
/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@0 {
		device_type = "memory";
		reg = <0x0 0x1000 0x5>;
	};
};
`)
	vs := StandardSet().Validate(tree)
	if len(vs) != 1 || !strings.Contains(vs[0].Message, "multiple") {
		t.Errorf("violations = %v", vs)
	}
}

func TestRegArityAcceptsAnyMultiple(t *testing.T) {
	// The dt-schema weakness the paper exploits (Section IV-C): 8 cells
	// under 32-bit addressing is 4 banks — structurally fine, even
	// though the values were written for 64-bit addressing.
	tree := mustParseDTS(t, `
/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x0 0x40000000 0x0 0x20000000
		       0x0 0x60000000 0x0 0x20000000>;
	};
};
`)
	vs := StandardSet().Validate(tree)
	if len(vs) != 0 {
		t.Errorf("baseline must accept the truncation case; got %v", vs)
	}
}

func TestAddressClashInvisibleToBaseline(t *testing.T) {
	// Section I-A: uart moved onto the second memory bank. The
	// structural baseline must NOT flag this.
	tree := mustParseDTS(t, `
/dts-v1/;
/ {
	#address-cells = <2>;
	#size-cells = <2>;
	memory@40000000 {
		device_type = "memory";
		reg = <0x0 0x40000000 0x0 0x20000000
		       0x0 0x60000000 0x0 0x20000000>;
	};
	uart@60000000 {
		compatible = "ns16550a";
		reg = <0x0 0x60000000 0x0 0x1000>;
	};
};
`)
	vs := StandardSet().Validate(tree)
	if len(vs) != 0 {
		t.Errorf("baseline should not detect the address clash; got %v", vs)
	}
}

func TestEnumViolation(t *testing.T) {
	tree := mustParseDTS(t, `
/dts-v1/;
/ {
	cpus {
		#address-cells = <1>;
		#size-cells = <0>;
		cpu@0 {
			compatible = "arm,cortex-a53";
			device_type = "cpu";
			enable-method = "magic";
			reg = <0x0>;
		};
	};
};
`)
	vs := StandardSet().Validate(tree)
	if len(vs) != 1 || !strings.Contains(vs[0].Message, "enum") {
		t.Errorf("violations = %v", vs)
	}
}

func TestSelectByCompatible(t *testing.T) {
	tree := mustParseDTS(t, `
/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	serial@0 {
		compatible = "ns16550a";
	};
};
`)
	// node name is "serial" but compatible selects the uart schema
	vs := StandardSet().Validate(tree)
	if len(vs) != 1 || vs[0].Property != "reg" {
		t.Errorf("violations = %v, want missing reg", vs)
	}
}

func TestMaxItems(t *testing.T) {
	sc := &Schema{
		ID:     "t",
		Select: Select{NodeName: "dev"},
		Properties: map[string]*PropSchema{
			"vals": {Type: TypeCells, MinItems: 2, MaxItems: 3},
		},
		AdditionalProperties: true,
	}
	set := &Set{}
	set.Add(sc)

	tree := mustParseDTS(t, `
/dts-v1/;
/ { dev { vals = <1>; }; };
`)
	vs := set.Validate(tree)
	if len(vs) != 1 || !strings.Contains(vs[0].Message, "at least 2") {
		t.Errorf("violations = %v", vs)
	}

	tree2 := mustParseDTS(t, `
/dts-v1/;
/ { dev { vals = <1 2 3 4>; }; };
`)
	vs2 := set.Validate(tree2)
	if len(vs2) != 1 || !strings.Contains(vs2[0].Message, "at most 3") {
		t.Errorf("violations = %v", vs2)
	}
}

func TestAdditionalPropertiesFalse(t *testing.T) {
	sc := &Schema{
		ID:     "strict",
		Select: Select{NodeName: "dev"},
		Properties: map[string]*PropSchema{
			"known": {},
		},
	}
	set := &Set{}
	set.Add(sc)
	tree := mustParseDTS(t, `
/dts-v1/;
/ { dev { known = <1>; mystery = <2>; #address-cells = <1>; }; };
`)
	vs := set.Validate(tree)
	if len(vs) != 1 || vs[0].Property != "mystery" {
		t.Errorf("violations = %v, want mystery rejected", vs)
	}
}

func TestLoadYAMLSchema(t *testing.T) {
	src := `
# dt-schema fragment from the paper's Listing 5
$id: memory.yaml
select:
  node: memory
properties:
  device_type:
    const: memory
  reg:
    reg-like: true
    minItems: 1
    maxItems: 1024
required:
  - device_type
  - reg
`
	sc, err := Load(src)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if sc.ID != "memory.yaml" || sc.Select.NodeName != "memory" {
		t.Errorf("header = %+v", sc)
	}
	dt := sc.Properties["device_type"]
	if dt == nil || dt.Const != "memory" {
		t.Errorf("device_type schema = %+v", dt)
	}
	reg := sc.Properties["reg"]
	if reg == nil || !reg.RegLike || reg.MinItems != 1 || reg.MaxItems != 1024 {
		t.Errorf("reg schema = %+v", reg)
	}
	if len(sc.Required) != 2 || sc.Required[0] != "device_type" {
		t.Errorf("required = %v", sc.Required)
	}

	// the loaded schema behaves like the built-in one
	set := &Set{}
	set.Add(sc)
	tree := mustParseDTS(t, `
/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	memory@0 { reg = <0x0 0x1000>; };
};
`)
	vs := set.Validate(tree)
	if len(vs) != 1 || vs[0].Property != "device_type" {
		t.Errorf("violations = %v", vs)
	}
}

func TestLoadYAMLWithCompatibleListAndPattern(t *testing.T) {
	src := `
$id: uart.yaml
select:
  compatible:
    - ns16550a
    - ns16550
properties:
  clock-names:
    pattern: ^uart[0-9]+$
  status:
    enum:
      - okay
      - disabled
  reg:
    type: cells
additionalProperties: true
`
	sc, err := Load(src)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(sc.Select.Compatible) != 2 {
		t.Errorf("compatible = %v", sc.Select.Compatible)
	}
	if sc.Properties["clock-names"].Pattern == nil {
		t.Error("pattern not compiled")
	}
	if got := sc.Properties["status"].Enum; len(got) != 2 || got[1] != "disabled" {
		t.Errorf("enum = %v", got)
	}
	if sc.Properties["reg"].Type != TypeCells {
		t.Errorf("type = %v", sc.Properties["reg"].Type)
	}
}

func TestLoadErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"bad pattern", "properties:\n  x:\n    pattern: '['\n"},
		{"unknown key", "properties:\n  x:\n    frobnicate: 1\n"},
		{"bad type", "properties:\n  x:\n    type: quux\n"},
		{"tab indent", "properties:\n\tx: 1\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Load(tt.src); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestLoadRejectsOutOfRangeNumbers: an integer const must be a 32-bit
// cell value and an item count must not be negative, or a value that
// wrapped would be checked instead of the one written. The error names
// the property.
func TestLoadRejectsOutOfRangeNumbers(t *testing.T) {
	tests := []struct {
		name, prop string
		wantErr    bool
		wantConst  uint32
	}{
		{"const above 2^32-1", "const: 4294967297", true, 0},
		{"const 2^63-1 as hex", "const: 0x7fffffffffffffff", true, 0},
		{"const -1", "const: -1", true, 0},
		{"negative minItems", "minItems: -1", true, 0},
		{"negative maxItems", "maxItems: -3", true, 0},
		{"const 2^32-1", "const: 4294967295", false, 4294967295},
		{"const 0", "const: 0", false, 0},
		{"zero item counts", "minItems: 0\n    maxItems: 0", false, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sc, err := Load("properties:\n  reg-shift:\n    " + tt.prop + "\n")
			if tt.wantErr {
				if err == nil || !strings.Contains(err.Error(), "property reg-shift") {
					t.Fatalf("err = %v, want an error naming property reg-shift", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			ps := sc.Properties["reg-shift"]
			if strings.HasPrefix(tt.prop, "const") && (ps.ConstU32 == nil || *ps.ConstU32 != tt.wantConst) {
				t.Errorf("ConstU32 = %v, want %d", ps.ConstU32, tt.wantConst)
			}
		})
	}
}

func TestYAMLParser(t *testing.T) {
	src := `
top: value
num: 0x10
flag: true
nested:
  a: 1
  b: two
list:
  - one
  - two
maps:
  - name: x
    v: 1
  - name: y
    v: 2
`
	v, err := parseYAML(src)
	if err != nil {
		t.Fatalf("parseYAML: %v", err)
	}
	m := v.(map[string]yamlValue)
	if m["top"] != "value" {
		t.Errorf("top = %v", m["top"])
	}
	if m["num"] != int64(16) {
		t.Errorf("num = %v", m["num"])
	}
	if m["flag"] != true {
		t.Errorf("flag = %v", m["flag"])
	}
	nested := m["nested"].(map[string]yamlValue)
	if nested["a"] != int64(1) || nested["b"] != "two" {
		t.Errorf("nested = %v", nested)
	}
	list := m["list"].([]yamlValue)
	if len(list) != 2 || list[0] != "one" {
		t.Errorf("list = %v", list)
	}
	maps := m["maps"].([]yamlValue)
	if len(maps) != 2 {
		t.Fatalf("maps = %v", maps)
	}
	first := maps[0].(map[string]yamlValue)
	if first["name"] != "x" || first["v"] != int64(1) {
		t.Errorf("maps[0] = %v", first)
	}
}

// TestStringRulesDoNotAllocate gates the readers of string values at
// zero allocations: selecting a schema by compatible tests membership
// and the string rules read only the first string, so neither needs the
// value's strings collected into a slice.
func TestStringRulesDoNotAllocate(t *testing.T) {
	tree := mustParseDTS(t, `/dts-v1/;
/ {
	uart@1000 { compatible = "vendor,uart", "ns16550a"; status = "okay"; };
};
`)
	node := tree.Lookup("/uart@1000")
	sel := Select{Compatible: []string{"ns16550a"}}
	if allocs := testing.AllocsPerRun(100, func() {
		if !sel.Matches(node) {
			t.Fatal("selector does not match the node's second compatible")
		}
	}); allocs != 0 {
		t.Errorf("Select.Matches allocates %.0f times, want 0", allocs)
	}
	sc := &Schema{ID: "uart", Properties: map[string]*PropSchema{
		"status": {Type: TypeString, Enum: []string{"okay", "disabled"}, Pattern: regexp.MustCompile(`^[a-z]+$`)},
	}}
	status := node.Property("status")
	dst := make([]Violation, 0, 4)
	if allocs := testing.AllocsPerRun(100, func() {
		if vs := sc.CheckProperty(dst[:0], "status", &status.Value, status.Origin, 2, "/uart@1000"); len(vs) != 0 {
			t.Fatalf("a valid status reports %v", vs)
		}
	}); allocs != 0 {
		t.Errorf("CheckProperty of a string property allocates %.0f times, want 0", allocs)
	}
}
