package schema

import (
	"fmt"
	"math"
	"regexp"
)

// Load parses a dt-schema-style YAML document into a Schema. The
// supported keys mirror the fragment shown in the paper's Listing 5:
//
//	$id: memory.yaml
//	select:
//	  node: memory            # or: compatible: [a, b]
//	properties:
//	  device_type:
//	    const: memory
//	  reg:
//	    reg-like: true
//	    minItems: 1
//	    maxItems: 1024
//	required:
//	  - device_type
//	  - reg
func Load(src string) (*Schema, error) {
	v, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	root, ok := v.(map[string]yamlValue)
	if !ok {
		return nil, fmt.Errorf("schema: document is not a map")
	}
	sc := &Schema{Properties: make(map[string]*PropSchema)}

	if id, ok := root["$id"].(string); ok {
		sc.ID = id
	}
	if sel, ok := root["select"].(map[string]yamlValue); ok {
		if node, ok := sel["node"].(string); ok {
			sc.Select.NodeName = node
		}
		switch compat := sel["compatible"].(type) {
		case string:
			sc.Select.Compatible = []string{compat}
		case []yamlValue:
			for _, c := range compat {
				s, ok := c.(string)
				if !ok {
					return nil, fmt.Errorf("schema: compatible entries must be strings")
				}
				sc.Select.Compatible = append(sc.Select.Compatible, s)
			}
		}
	}
	if ap, ok := root["additionalProperties"].(bool); ok {
		sc.AdditionalProperties = ap
	} else {
		sc.AdditionalProperties = true
	}

	if props, ok := root["properties"].(map[string]yamlValue); ok {
		for name, raw := range props {
			ps, err := loadPropSchema(name, raw)
			if err != nil {
				return nil, err
			}
			sc.Properties[name] = ps
		}
	}
	if req, ok := root["required"].([]yamlValue); ok {
		for _, r := range req {
			s, ok := r.(string)
			if !ok {
				return nil, fmt.Errorf("schema: required entries must be strings")
			}
			sc.Required = append(sc.Required, s)
		}
	}
	return sc, nil
}

func loadPropSchema(name string, raw yamlValue) (*PropSchema, error) {
	ps := &PropSchema{}
	m, ok := raw.(map[string]yamlValue)
	if !ok {
		if raw == nil {
			return ps, nil // bare "name:" — presence only
		}
		return nil, fmt.Errorf("schema: property %s must be a map", name)
	}
	for key, val := range m {
		switch key {
		case "const":
			switch c := val.(type) {
			case string:
				ps.Const = c
			case int64:
				if c < 0 || c > math.MaxUint32 {
					return nil, fmt.Errorf("schema: property %s: const %d is not a 32-bit cell value", name, c)
				}
				u := uint32(c)
				ps.ConstU32 = &u
			default:
				return nil, fmt.Errorf("schema: property %s: const must be string or int", name)
			}
		case "enum":
			list, ok := val.([]yamlValue)
			if !ok {
				return nil, fmt.Errorf("schema: property %s: enum must be a list", name)
			}
			for _, e := range list {
				s, ok := e.(string)
				if !ok {
					return nil, fmt.Errorf("schema: property %s: enum entries must be strings", name)
				}
				ps.Enum = append(ps.Enum, s)
			}
		case "pattern":
			s, ok := val.(string)
			if !ok {
				return nil, fmt.Errorf("schema: property %s: pattern must be a string", name)
			}
			re, err := regexp.Compile(s)
			if err != nil {
				return nil, fmt.Errorf("schema: property %s: %v", name, err)
			}
			ps.Pattern = re
		case "minItems":
			n, ok := val.(int64)
			if !ok {
				return nil, fmt.Errorf("schema: property %s: minItems must be an int", name)
			}
			if n < 0 {
				return nil, fmt.Errorf("schema: property %s: minItems %d is negative", name, n)
			}
			ps.MinItems = int(n)
		case "maxItems":
			n, ok := val.(int64)
			if !ok {
				return nil, fmt.Errorf("schema: property %s: maxItems must be an int", name)
			}
			if n < 0 {
				return nil, fmt.Errorf("schema: property %s: maxItems %d is negative", name, n)
			}
			ps.MaxItems = int(n)
		case "reg-like":
			b, ok := val.(bool)
			if !ok {
				return nil, fmt.Errorf("schema: property %s: reg-like must be a bool", name)
			}
			ps.RegLike = b
		case "type":
			s, _ := val.(string)
			switch s {
			case "string":
				ps.Type = TypeString
			case "u32":
				ps.Type = TypeU32
			case "cells":
				ps.Type = TypeCells
			case "bytes":
				ps.Type = TypeBytes
			case "flag":
				ps.Type = TypeFlag
			case "", "any":
				ps.Type = TypeAny
			default:
				return nil, fmt.Errorf("schema: property %s: unknown type %q", name, s)
			}
		default:
			return nil, fmt.Errorf("schema: property %s: unknown key %q", name, key)
		}
	}
	return ps, nil
}

// StandardSet returns the binding schemas for the paper's running
// example: memory nodes, CPU nodes, ns16550a UARTs and virtual
// Ethernet devices. These mirror dt-schema's core schemas restricted
// to what the CustomSBC uses.
func StandardSet() *Set {
	set := &Set{}
	set.Add(&Schema{
		ID:     "memory.yaml",
		Select: Select{NodeName: "memory"},
		Properties: map[string]*PropSchema{
			"device_type": {Type: TypeString, Const: "memory"},
			"reg":         {Type: TypeCells, RegLike: true, MinItems: 1, MaxItems: 1024},
		},
		Required:             []string{"device_type", "reg"},
		AdditionalProperties: true,
	})
	set.Add(&Schema{
		ID:     "cpu.yaml",
		Select: Select{NodeName: "cpu"},
		Properties: map[string]*PropSchema{
			"device_type":   {Type: TypeString, Const: "cpu"},
			"compatible":    {Type: TypeString},
			"enable-method": {Type: TypeString, Enum: []string{"psci", "spin-table"}},
			"reg":           {Type: TypeU32},
		},
		Required:             []string{"device_type", "compatible", "reg"},
		AdditionalProperties: true,
	})
	set.Add(&Schema{
		ID:     "ns16550a.yaml",
		Select: Select{NodeName: "uart", Compatible: []string{"ns16550a"}},
		Properties: map[string]*PropSchema{
			"compatible": {Type: TypeString},
			"reg":        {Type: TypeCells, RegLike: true, MinItems: 1, MaxItems: 4},
		},
		Required:             []string{"compatible", "reg"},
		AdditionalProperties: true,
	})
	set.Add(&Schema{
		ID:     "veth.yaml",
		Select: Select{NodeName: "veth", Compatible: []string{"veth"}},
		Properties: map[string]*PropSchema{
			"compatible": {Type: TypeString, Const: "veth"},
			"reg":        {Type: TypeCells, RegLike: true, MinItems: 1, MaxItems: 1},
			"id":         {Type: TypeU32},
		},
		Required:             []string{"compatible", "reg", "id"},
		AdditionalProperties: true,
	})
	return set
}
