package runningexample

import (
	"os"
	"strings"
	"testing"

	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
)

// The testdata files are the on-disk counterparts of this package's
// embedded constants (they feed the CLI tests); keep them in sync.

func TestTestdataDeltasMatchesEmbedded(t *testing.T) {
	onDisk, err := os.ReadFile("../../testdata/customsbc.deltas")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(onDisk)) != strings.TrimSpace(DeltasSource) {
		t.Error("testdata/customsbc.deltas diverged from runningexample.DeltasSource")
	}
}

func TestTestdataFMEquivalentToModel(t *testing.T) {
	onDisk, err := os.ReadFile("../../testdata/customsbc.fm")
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := featmodel.ParseModel("customsbc.fm", string(onDisk))
	if err != nil {
		t.Fatal(err)
	}
	embedded, err := Model()
	if err != nil {
		t.Fatal(err)
	}
	nf, _ := featmodel.NewAnalyzer(fromFile).CountProducts(0)
	ne, _ := featmodel.NewAnalyzer(embedded).CountProducts(0)
	if nf != ne || nf != ProductCount {
		t.Errorf("products: file=%d embedded=%d want=%d", nf, ne, ProductCount)
	}
	ff, fe := fromFile.Names(), embedded.Names()
	if len(ff) != len(fe) {
		t.Fatalf("feature sets differ: %v vs %v", ff, fe)
	}
	for i := range ff {
		if ff[i] != fe[i] {
			t.Fatalf("feature order differs: %v vs %v", ff, fe)
		}
	}
}

func TestTestdataDTSEquivalentToEmbedded(t *testing.T) {
	// the on-disk DTS (used by parser tests and CLI tests) must describe
	// the same tree as the embedded constant; compare canonical prints
	embedded, err := Tree()
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := dts.ParseFile("../../testdata/customsbc.dts")
	if err != nil {
		t.Fatal(err)
	}
	if embedded.Print() != onDisk.Print() {
		t.Errorf("testdata/customsbc.dts diverged from runningexample.CoreDTS:\n--- embedded ---\n%s\n--- on disk ---\n%s",
			embedded.Print(), onDisk.Print())
	}
}

func TestConfigsAreValidProducts(t *testing.T) {
	m, err := Model()
	if err != nil {
		t.Fatal(err)
	}
	if lits := m.Conflict(VM1Config()); lits != nil {
		t.Errorf("VM1Config invalid: %v", lits)
	}
	if lits := m.Conflict(VM2Config()); lits != nil {
		t.Errorf("VM2Config invalid: %v", lits)
	}
}

func TestSpareModelCounts(t *testing.T) {
	m, err := SpareModel(3)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := featmodel.NewAnalyzer(m).CountProducts(0); n != 8*ProductCount || n <= featmodel.MaxProductSet {
		t.Errorf("SpareModel(3) has %d products, want %d (> %d)", n, 8*ProductCount, featmodel.MaxProductSet)
	}
}
