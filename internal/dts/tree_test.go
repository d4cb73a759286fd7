package dts

import "testing"

// TestMergeCopiesOnlyWithoutOwner pins who keeps what a merge takes in.
// Merge, ApplyOverlay's, copies other's properties and new children, so
// a later merge that writes the merged tree in place never writes
// other. MergeAt, delta application's, shares them, and a
// later MergeAt under a shared child owns the child first, so the
// source stays as it was there too.
func TestMergeCopiesOnlyWithoutOwner(t *testing.T) {
	parse := func(src string) *Tree {
		t.Helper()
		tree, err := Parse("merge.dts", src)
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	first := parse(`/dts-v1/; / { x = <0>; a { p = <1>; b { q = <2>; }; }; };`)
	second := parse(`/dts-v1/; / { a { p = <3>; b { q = <4>; r; }; }; };`)
	before := first.Print()
	want := `/dts-v1/; / { x = <0>; a { p = <3>; b { q = <4>; r; }; }; };`

	merged := NewTree()
	merged.Root.Merge(first.Root)
	a := merged.Root.Child("a")
	if merged.Root.Property("x") == first.Root.Property("x") || a == first.Root.Child("a") {
		t.Error("Merge shared a property or node of what it merged")
	}
	merged.Root.Merge(second.Root)
	if got := first.Print(); got != before {
		t.Errorf("a later Merge wrote the first source:\n%s", got)
	}
	if got := merged.Print(); got != parse(want).Print() {
		t.Errorf("Merge gave\n%s", got)
	}

	derived := NewTree().Derive()
	derived.MergeAt([]*Node{derived.Root}, first.Root)
	if derived.Root.Property("x") != first.Root.Property("x") || derived.Root.Child("a") != first.Root.Child("a") {
		t.Error("MergeAt copied a property or new child instead of sharing it")
	}
	derived.MergeAt([]*Node{derived.Root}, second.Root)
	if got := first.Print(); got != before {
		t.Errorf("a later MergeAt wrote the shared source:\n%s", got)
	}
	if got := derived.Print(); got != parse(want).Print() {
		t.Errorf("MergeAt gave\n%s", got)
	}
}

// TestParseMovesFreshBlocks pins that the parser moves each top-level
// block into its tree instead of cloning it: the source has two `/ { }`
// blocks and one `&label { }` extension, and the first block's node
// merges into the second's. A clone of any fresh block would cost at
// least one more allocation per property it holds.
func TestParseMovesFreshBlocks(t *testing.T) {
	const src = `/dts-v1/;
/ {
	#address-cells = <1>;
	#size-cells = <1>;
	uart0: serial@1000 {
		compatible = "arm,pl011";
		reg = <0x1000 0x100>;
	};
};
/ {
	model = "two blocks";
	serial@1000 {
		interrupts = <5 4>;
	};
	memory@80000000 {
		device_type = "memory";
		reg = <0x80000000 0x1000000>;
	};
};
&uart0 {
	status = "okay";
	current-speed = <115200>;
};
`
	parse := func() {
		if _, err := Parse("moves.dts", src); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 64
	if allocs := testing.AllocsPerRun(50, parse); allocs > budget {
		t.Errorf("parsing two root blocks and one extension allocates %.0f times, budget %d", allocs, budget)
	}
}
