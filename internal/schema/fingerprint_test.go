package schema

import (
	"sync"
	"testing"
)

func setOf(schemas ...*Schema) *Set {
	s := &Set{}
	for _, sc := range schemas {
		s.Add(sc)
	}
	return s
}

func TestFingerprintStableAcrossOrder(t *testing.T) {
	a := &Schema{ID: "a.yaml", Select: Select{NodeName: "a"}}
	b := &Schema{ID: "b.yaml", Select: Select{NodeName: "b"}}
	if setOf(a, b).Fingerprint() != setOf(b, a).Fingerprint() {
		t.Error("fingerprint depends on schema insertion order")
	}
}

// TestFingerprintSeparatorValues guards the length-delimited dump:
// values containing the old ',' and ';' separators must not let two
// distinct schema sets collide.
func TestFingerprintSeparatorValues(t *testing.T) {
	joined := setOf(&Schema{
		ID:       "x.yaml",
		Select:   Select{NodeName: "x"},
		Required: []string{"a,b"},
	})
	split := setOf(&Schema{
		ID:       "x.yaml",
		Select:   Select{NodeName: "x"},
		Required: []string{"a", "b"},
	})
	if joined.Fingerprint() == split.Fingerprint() {
		t.Error(`Required ["a,b"] and ["a","b"] collide`)
	}

	enumJoined := setOf(&Schema{
		ID:     "y.yaml",
		Select: Select{NodeName: "y"},
		Properties: map[string]*PropSchema{
			"p": {Type: TypeString, Enum: []string{"u;v"}},
		},
	})
	enumSplit := setOf(&Schema{
		ID:     "y.yaml",
		Select: Select{NodeName: "y"},
		Properties: map[string]*PropSchema{
			"p": {Type: TypeString, Enum: []string{"u", "v"}},
		},
	})
	if enumJoined.Fingerprint() == enumSplit.Fingerprint() {
		t.Error(`Enum ["u;v"] and ["u","v"] collide`)
	}
}

func TestFingerprintSensitiveToConstraints(t *testing.T) {
	base := func() *Schema {
		return &Schema{
			ID:     "m.yaml",
			Select: Select{NodeName: "m"},
			Properties: map[string]*PropSchema{
				"reg": {Type: TypeCells, MinItems: 1, MaxItems: 4},
			},
			Required: []string{"reg"},
		}
	}
	ref := setOf(base()).Fingerprint()
	changed := base()
	changed.Properties["reg"].MaxItems = 8
	if setOf(changed).Fingerprint() == ref {
		t.Error("changing MaxItems did not change the fingerprint")
	}
	u := uint32(7)
	withConst := base()
	withConst.Properties["reg"].ConstU32 = &u
	if setOf(withConst).Fingerprint() == ref {
		t.Error("adding ConstU32 did not change the fingerprint")
	}
}

// TestFingerprintSharedSet pins the memoized fingerprint of a set
// shared across requests: concurrent first calls agree with each other
// and with a fresh set's fingerprint, and later calls allocate nothing.
func TestFingerprintSharedSet(t *testing.T) {
	want := StandardSet().Fingerprint()
	shared := StandardSet()
	var wg sync.WaitGroup
	got := make([]string, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = shared.Fingerprint()
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Errorf("goroutine %d: fingerprint %s, want %s", i, fp, want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = shared.Fingerprint() }); allocs != 0 {
		t.Errorf("a repeated Fingerprint allocates %.0f times, want 0", allocs)
	}
}
