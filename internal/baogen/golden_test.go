package baogen_test

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"llhsc/internal/baogen"
	"llhsc/internal/bench"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/runningexample"
)

var update = flag.Bool("update", false, "rewrite the golden artifact texts under testdata/golden")

// artifactInput is one set of artifact facts: a platform and the VMs
// of its configuration, named.
type artifactInput struct {
	name     string
	platform *baogen.Platform
	config   *baogen.Config
}

// lineInput extracts the facts of a product line's VM products and
// their platform union, as the pipeline does once every product passes.
func lineInput(t *testing.T, name string, core *dts.Tree, deltas *delta.Set, configs []featmodel.Configuration, names []string) artifactInput {
	t.Helper()
	union, _, err := deltas.Apply(core, featmodel.PlatformUnion(configs))
	if err != nil {
		t.Fatal(err)
	}
	platform, err := baogen.PlatformFromTree(union)
	if err != nil {
		t.Fatal(err)
	}
	vms := make([]*baogen.VM, len(configs))
	for i, cfg := range configs {
		tree, _, err := deltas.Apply(core, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if vms[i], err = baogen.VMFromTree(names[i], tree); err != nil {
			t.Fatal(err)
		}
	}
	return artifactInput{name: name, platform: platform, config: baogen.NewConfig(vms)}
}

// artifactInputs are the golden inputs: the running example's two
// VMs, the synthetic 8-CPU/24-UART line's eight, and one VM whose
// numbers all take their widest form and whose name %q must escape.
func artifactInputs(t *testing.T) []artifactInput {
	t.Helper()
	core, err := runningexample.Tree()
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := runningexample.Deltas()
	if err != nil {
		t.Fatal(err)
	}
	example := lineInput(t, "running-example", core, deltas,
		[]featmodel.Configuration{runningexample.VM1Config(), runningexample.VM2Config()},
		[]string{"vm1", "vm2"})

	p, err := bench.SyntheticProductLine(8, 24, 8)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(p.VMConfigs))
	for i := range names {
		names[i] = "vm" + strconv.Itoa(i+1)
	}
	synthetic := lineInput(t, "synthetic-8-24-8", p.Core, p.Deltas, p.VMConfigs, names)

	const wide = ^uint64(0)
	const wideInt = math.MinInt64
	vm := &baogen.VM{
		Name: "vm \"wide\"\\\t\x01é<&>\xff", ImageBase: wide, Entry: wide, CPUAffinity: wide, CPUNum: wideInt,
		Regions: []baogen.MemRegion{{Base: wide, Size: wide}, {Base: 0, Size: 0}},
		Devices: []baogen.DevRegion{{PA: wide, VA: wide, Size: wide}},
		IPCs:    []baogen.IPC{{Base: wide, Size: wide, ShmemID: wideInt}, {Base: wide, Size: wide, ShmemID: math.MaxInt64}},
	}
	widest := artifactInput{
		name: "widest",
		platform: &baogen.Platform{
			CPUNum: wideInt, Regions: vm.Regions, ConsoleBase: wide,
			Clusters: []baogen.Cluster{{CoreNum: wideInt}, {CoreNum: math.MaxInt64}},
		},
		config: &baogen.Config{VMs: []*baogen.VM{vm}, Shmems: []baogen.Shmem{{Size: wide}, {Size: 0}, {Size: 1}}},
	}
	return []artifactInput{example, synthetic, widest}
}

// qemuText lists the QEMU invocation for each architecture, one
// argument per line.
func qemuText(p *baogen.Platform) string {
	var b strings.Builder
	for _, arch := range []string{"aarch64", "rv64"} {
		b.WriteString("# " + arch + "\n")
		for _, arg := range baogen.QEMUArgs(p, arch) {
			b.WriteString(arg + "\n")
		}
	}
	return b.String()
}

// TestArtifactGoldens pins the full text of every artifact: the
// platform (Listing 3) and VM-list (Listing 6) C files, the Jailhouse
// root cell and each VM's cell, and the QEMU arguments. Regenerate
// with go test ./internal/baogen -run TestArtifactGoldens -update.
func TestArtifactGoldens(t *testing.T) {
	for _, in := range artifactInputs(t) {
		files := map[string]string{
			"platform.c":       in.platform.RenderPlatformC(),
			"config.c":         in.config.RenderConfigC(),
			"jailhouse-root.c": baogen.RenderJailhouseRootC(in.platform),
			"qemu.txt":         qemuText(in.platform),
		}
		for i, vm := range in.config.VMs {
			files["jailhouse-cell-"+strconv.Itoa(i+1)+".c"] = baogen.RenderJailhouseCellC(vm)
		}
		checkAppenders(t, in, files)
		dir := filepath.Join("testdata", "golden", in.name)
		for file, got := range files {
			path := filepath.Join(dir, file)
			if *update {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal([]byte(got), want) {
				t.Errorf("%s differs from its golden:\n got:\n%s\nwant:\n%s", path, got, want)
			}
		}
	}
}

// checkAppenders requires each Append* renderer to append exactly its
// Render* text (files) after what dst already holds, and to allocate
// nothing once dst has room.
func checkAppenders(t *testing.T, in artifactInput, files map[string]string) {
	t.Helper()
	const prefix = "prefix\n"
	appenders := map[string]func(dst []byte) []byte{
		"platform.c":       in.platform.AppendPlatformC,
		"config.c":         in.config.AppendConfigC,
		"jailhouse-root.c": func(dst []byte) []byte { return baogen.AppendJailhouseRootC(dst, in.platform) },
	}
	for i, vm := range in.config.VMs {
		appenders["jailhouse-cell-"+strconv.Itoa(i+1)+".c"] = func(dst []byte) []byte { return baogen.AppendJailhouseCellC(dst, vm) }
	}
	want := make(map[string]string, len(appenders)+2)
	for file := range appenders {
		want[file] = files[file]
	}
	for _, arch := range []string{"aarch64", "rv64"} {
		appenders["qemu "+arch] = func(dst []byte) []byte { return baogen.AppendQEMUArgs(dst, in.platform, arch, "\x00") }
		want["qemu "+arch] = strings.Join(baogen.QEMUArgs(in.platform, arch), "\x00")
	}
	for file, appendTo := range appenders {
		dst := make([]byte, 0, 1<<16)
		got := appendTo(append(dst, prefix...))
		if want := prefix + want[file]; string(got) != want {
			t.Errorf("%s/%s: the appender wrote\n%q\nwant\n%q", in.name, file, got, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { appendTo(dst[:0]) }); allocs != 0 {
			t.Errorf("%s/%s: the appender allocated %.0f times into a buffer with room", in.name, file, allocs)
		}
	}
}
