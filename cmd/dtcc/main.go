// Command dtcc is a mini DeviceTree compiler built on the llhsc
// substrate: it compiles DTS source to flattened DTB blobs and back,
// and lints DTS files structurally and semantically.
//
// Usage:
//
//	dtcc compile   in.dts [-o out.dtb]
//	dtcc decompile in.dtb [-o out.dts]
//	dtcc lint      in.dts [-semantic]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"llhsc/internal/constraints"
	"llhsc/internal/dtb"
	"llhsc/internal/dts"
	"llhsc/internal/schema"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dtcc:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: dtcc compile|decompile|lint <file> [flags]")
	}
	switch args[0] {
	case "compile":
		return cmdCompile(args[1:])
	case "decompile":
		return cmdDecompile(args[1:])
	case "lint":
		return cmdLint(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func splitInput(args []string) (string, []string, error) {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return "", nil, fmt.Errorf("missing input file")
	}
	return args[0], args[1:], nil
}

func cmdCompile(args []string) error {
	in, rest, err := splitInput(args)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("compile", flag.ContinueOnError)
	out := fs.String("o", "", "output .dtb file (default: stdout summary)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	tree, err := dts.ParseFile(in)
	if err != nil {
		return err
	}
	blob, err := dtb.Encode(tree)
	if err != nil {
		return err
	}
	if *out == "" {
		base := strings.TrimSuffix(in, ".dts") + ".dtb"
		*out = base
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("%s: %d bytes\n", *out, len(blob))
	return nil
}

func cmdDecompile(args []string) error {
	in, rest, err := splitInput(args)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("decompile", flag.ContinueOnError)
	out := fs.String("o", "", "output .dts file (default: stdout)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	blob, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	tree, err := dtb.Decode(blob)
	if err != nil {
		return err
	}
	text := tree.Print()
	if *out == "" {
		fmt.Print(text)
		return nil
	}
	return os.WriteFile(*out, []byte(text), 0o644)
}

func cmdLint(args []string) error {
	in, rest, err := splitInput(args)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	semantic := fs.Bool("semantic", false, "also run the semantic checks (overlap, interrupts, memreserve)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	tree, err := dts.ParseFile(in)
	if err != nil {
		return err
	}
	problems := 0
	for _, w := range tree.Lint() {
		fmt.Println(w)
		problems++
	}
	for _, v := range schema.StandardSet().Validate(tree) {
		fmt.Println(v)
		problems++
	}
	if *semantic {
		collisions, violations := constraints.NewSemanticChecker().Check(tree)
		for _, c := range collisions {
			fmt.Println(c)
		}
		problems += len(collisions)
		for _, v := range violations {
			if v.Rule == "semantic:regions" {
				fmt.Println(v)
				problems++
			}
		}
		for _, v := range (constraints.InterruptChecker{}).Check(tree) {
			fmt.Println(v)
			problems++
		}
		for _, v := range (constraints.MemReserveChecker{}).Check(tree) {
			fmt.Println(v)
			problems++
		}
	}
	if problems > 0 {
		return fmt.Errorf("%d problem(s)", problems)
	}
	fmt.Printf("%s: clean\n", in)
	return nil
}
