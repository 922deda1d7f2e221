// Command specgen compiles the EFSM specifications of internal/ids
// into internal/idsgen, the compiled detection backend.
//
// The specifications are authored once, in the guard/action IR of
// internal/core. The interpreted reference evaluates that IR; specgen
// emits it as Go. Per run it flattens each spec into a dense
// [state][event] cell table in the candidate order the interpreted
// core.Machine.Step walks, groups structurally identical specs
// (rtp-caller/rtp-callee, invite-/response-flood) into one machine
// family, and writes everything that is specification semantics:
//
//	tables_gen.go    the tables
//	args_gen.go      the typed event vectors with their core.TypedArgs
//	                 accessors, the δ events, and SysGlobals
//	<family>_gen.go  the machine struct (fields, presence bits, Reset,
//	                 Vars, varsFootprint, view accessors), Step, one
//	                 function per distinct guard and action node, and
//	                 the dispatch switches
//
// What stays handwritten in internal/idsgen names no state, variable,
// event or guard: runtime.go (table types, lookups, the machine
// shell), system.go (the δ-FIFO CallSystem and the constructors) and
// reconstruct.go. A second output, internal/idsgen/probe_gen_test.go,
// compiles internal/core/irtest's fixture machine — one transition per
// IR primitive — so a package test can hold the emitter to the
// evaluator primitive by primitive.
//
// Usage:
//
//	specgen [-out internal/idsgen]   regenerate
//	specgen -check                   fail if any generated file is stale or a stray file appeared
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vids/internal/core"
	"vids/internal/core/irtest"
	"vids/internal/ids"
)

// handwritten lists the non-generated, non-test files internal/idsgen
// may hold. Anything else that is not specgen output is a second
// authorship creeping back in, and fails the run.
var handwritten = map[string]bool{"runtime.go": true, "system.go": true, "reconstruct.go": true}

// generate compiles one set of specs. globalsType names the struct for
// their shared g.* store; tablesVar, if set, the slice listing their
// tables. The sections come back in emission order: tables, shared
// declarations, then one per family.
func generate(specs []*core.Spec, globalsType, tablesVar string) ([]*section, error) {
	p, err := analyze(specs, globalsType)
	if err != nil {
		return nil, err
	}
	g := &emitter{P: p, GlobalsType: globalsType}
	shared, err := g.shared()
	if err != nil {
		return nil, err
	}
	sections := []*section{g.tables(tablesVar), shared}
	for _, f := range p.Families {
		s, err := g.machine(f)
		if err != nil {
			return nil, err
		}
		sections = append(sections, s)
	}
	return sections, nil
}

// outputs renders every generated file, keyed by base name.
func outputs() (map[string][]byte, error) {
	files := make(map[string][]byte)
	sections, err := generate(ids.Specs(ids.DefaultConfig()), "SysGlobals", "specTables")
	if err != nil {
		return nil, err
	}
	for _, s := range sections {
		if files[s.name+"_gen.go"], err = render("idsgen", s); err != nil {
			return nil, err
		}
	}
	probe, err := generate(irtest.Specs(), "probeGlobals", "")
	if err != nil {
		return nil, err
	}
	if files["probe_gen_test.go"], err = render("idsgen", probe...); err != nil {
		return nil, err
	}
	return files, nil
}

func run(dir string, check bool) error {
	files, err := outputs()
	if err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var stale []string
	for _, e := range entries {
		name := e.Name()
		_, ours := files[name]
		switch {
		case ours || e.IsDir() || handwritten[name] || !strings.HasSuffix(name, ".go"):
		case strings.HasSuffix(name, "_gen.go"), strings.HasSuffix(name, "_gen_test.go"):
			stale = append(stale, name)
		case strings.HasSuffix(name, "_test.go"):
		default:
			return fmt.Errorf("%s: handwritten file in the generated package (only runtime.go, system.go, reconstruct.go and tests are): author specifications in internal/ids", filepath.Join(dir, name))
		}
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)

	if check {
		for _, name := range names {
			have, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return fmt.Errorf("-check: %v", err)
			}
			if !bytes.Equal(have, files[name]) {
				stale = append(stale, name)
			}
		}
		if len(stale) > 0 {
			return fmt.Errorf("stale in %s: %s; run `make specgen` and commit the result", dir, strings.Join(stale, ", "))
		}
		fmt.Printf("specgen: %d generated files in %s are current\n", len(names), dir)
		return nil
	}

	for _, name := range stale {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), files[name], 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("specgen: wrote %s in %s\n", strings.Join(names, ", "), dir)
	return nil
}

func main() {
	out := flag.String("out", "internal/idsgen", "directory of the generated package")
	check := flag.Bool("check", false, "verify the committed generated code is current; exit nonzero on drift")
	flag.Parse()
	if err := run(*out, *check); err != nil {
		fmt.Fprintln(os.Stderr, "specgen:", err)
		os.Exit(1)
	}
}
