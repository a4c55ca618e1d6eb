// Command pglint runs the static dangling-pointer analysis
// (internal/minic/safety) over a mini-C program and prints ranked
// diagnostics: DEFINITE-UAF findings first, then POSSIBLE-UAF, each with
// allocation/free/use site provenance and an interprocedural witness path
// from the freeing statement to the use,
// followed by the elision summary (which malloc sites are proven safe to
// leave unprotected at run time).
//
// Usage:
//
//	pglint file.c                 # lint a source file
//	pglint -workload treeadd      # lint a bundled workload
//	pglint -safe file.c           # also list PROVEN-SAFE uses
//	pglint -json file.c           # machine-readable report (schema pglint/2)
//	pglint -stats file.c          # summary lines only
//
// Exit status: 0 when the program is clean, 1 when any DEFINITE-UAF finding
// exists, 2 on usage, compile, or analysis errors — so CI pipelines can
// distinguish "bug found" from "lint broken".
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/minic/driver"
	"repro/internal/minic/safety"
	"repro/internal/obs"
	"repro/pageguard"
)

// Schema identifies the -json output format. Bump it whenever a field
// changes meaning; additions are backward compatible.
const Schema = "pglint/2"

// Engine is the -json document's "engine" field. It names the site-granular
// analysis, kept under the name schema pglint/2 gave it.
const Engine = "v2"

type options struct {
	safe  bool
	jsonF bool
	stats bool
}

func main() {
	wl := flag.String("workload", "", "lint a bundled workload by name")
	safe := flag.Bool("safe", false, "also list PROVEN-SAFE uses")
	version := flag.Bool("version", false, "print build and Go toolchain versions and exit")
	list := flag.Bool("list", false, "list bundled workload names and exit")
	jsonF := flag.Bool("json", false, "emit the machine-readable JSON report (schema "+Schema+")")
	stats := flag.Bool("stats", false, "print only the summary lines")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: pglint [flags] file.c\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), `
exit status:
  0  no DEFINITE-UAF findings
  1  at least one DEFINITE-UAF finding
  2  usage, compile, or analysis error
`)
	}
	flag.Parse()

	if *version {
		fmt.Printf("pglint %s (%s)\n", obs.BuildVersion(), obs.GoVersion())
		return
	}
	if *list {
		for _, w := range pageguard.Workloads() {
			fmt.Println(w.Name)
		}
		return
	}

	opts := options{safe: *safe, jsonF: *jsonF, stats: *stats}
	definite, err := run(*wl, opts, flag.Args(), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pglint:", err)
		os.Exit(2)
	}
	if definite > 0 {
		os.Exit(1)
	}
}

func run(wl string, opts options, args []string, w io.Writer) (int, error) {
	var src string
	switch {
	case wl != "":
		s, err := pageguard.WorkloadSource(wl)
		if err != nil {
			return 0, err
		}
		src = s
	case len(args) == 1:
		b, err := os.ReadFile(args[0])
		if err != nil {
			return 0, err
		}
		src = string(b)
	default:
		return 0, errors.New("expected exactly one source file (or -workload)")
	}
	return lint(src, opts, w)
}

// lint compiles src, runs the safety analysis, and prints the report.
// It returns the number of DEFINITE-UAF findings.
func lint(src string, opts options, w io.Writer) (int, error) {
	prog, err := driver.Compile(src)
	if err != nil {
		return 0, err
	}
	rep, err := safety.Analyze(prog)
	if err != nil {
		return 0, err
	}
	st := rep.Stats()
	if opts.jsonF {
		if err := writeJSON(w, rep, st); err != nil {
			return 0, err
		}
		return st.Definite, nil
	}

	if !opts.stats {
		// Ranked: DEFINITE first, then POSSIBLE, then (with -safe)
		// PROVEN. Within a verdict the report is already sorted by
		// (file, line, kind, class).
		order := []safety.Verdict{safety.DefiniteUAF, safety.PossibleUAF}
		if opts.safe {
			order = append(order, safety.ProvenSafe)
		}
		for _, v := range order {
			for _, f := range rep.ByVerdict(v) {
				printFinding(w, f)
			}
		}
	}

	fmt.Fprintf(w, "%d definite, %d possible, %d proven-safe of %d classified uses\n",
		st.Definite, st.Possible, st.Proven, len(rep.Findings))

	fmt.Fprintf(w, "elision: %d of %d allocation sites elidable", st.Elidable, st.Classes)
	if sites := rep.ElidableSites(); len(sites) > 0 {
		fmt.Fprintf(w, " (malloc sites:")
		for _, s := range sites {
			fmt.Fprintf(w, " %s", s)
		}
		fmt.Fprintf(w, ")")
	}
	fmt.Fprintln(w)
	return st.Definite, nil
}

// The -json document. Field order and sorting are stable across runs:
// findings come pre-sorted by (func, line, verdict, kind, class), classes
// by ID, site lists lexicographically.
type jsonReport struct {
	Schema   string        `json:"schema"`
	Engine   string        `json:"engine"`
	Findings []jsonFinding `json:"findings"`
	Classes  []jsonClass   `json:"classes"`
	Stats    jsonStats     `json:"stats"`
}

type jsonFinding struct {
	Site       string     `json:"site"`
	Func       string     `json:"func"`
	Line       int        `json:"line"`
	Kind       string     `json:"kind"`
	Verdict    string     `json:"verdict"`
	ClassID    int        `json:"class_id"`
	AllocSites []string   `json:"alloc_sites,omitempty"`
	FreeSites  []string   `json:"free_sites,omitempty"`
	Witness    []jsonStep `json:"witness,omitempty"`
}

type jsonStep struct {
	Site string `json:"site"`
	Role string `json:"role"`
}

type jsonClass struct {
	ID           int      `json:"id"`
	AllocSites   []string `json:"alloc_sites,omitempty"`
	FreeSites    []string `json:"free_sites,omitempty"`
	GlobalEscape bool     `json:"global_escape,omitempty"`
	Elidable     bool     `json:"elidable"`
	ElideBlocked string   `json:"elide_blocked,omitempty"`
}

type jsonStats struct {
	Definite      int      `json:"definite"`
	Possible      int      `json:"possible"`
	ProvenSafe    int      `json:"proven_safe"`
	Classes       int      `json:"classes"`
	Elidable      int      `json:"elidable"`
	ElidableSites []string `json:"elidable_sites,omitempty"`
}

func writeJSON(w io.Writer, rep *safety.Report, st safety.Stats) error {
	doc := jsonReport{
		Schema:   Schema,
		Engine:   Engine,
		Findings: []jsonFinding{},
		Classes:  []jsonClass{},
		Stats: jsonStats{
			Definite: st.Definite, Possible: st.Possible, ProvenSafe: st.Proven,
			Classes: st.Classes, Elidable: st.Elidable,
			ElidableSites: rep.ElidableSites(),
		},
	}
	for _, f := range rep.Findings {
		jf := jsonFinding{
			Site: f.Site, Func: f.Func, Line: f.Line,
			Kind: f.Kind.String(), Verdict: f.Verdict.String(),
			ClassID:    f.ClassID,
			AllocSites: f.AllocSites, FreeSites: f.FreeSites,
		}
		for _, s := range f.Witness {
			jf.Witness = append(jf.Witness, jsonStep{Site: s.Site, Role: s.Role})
		}
		doc.Findings = append(doc.Findings, jf)
	}
	for _, c := range rep.Classes {
		doc.Classes = append(doc.Classes, jsonClass{
			ID: c.ID, AllocSites: c.AllocSites, FreeSites: c.FreeSites,
			GlobalEscape: c.GlobalEscape, Elidable: c.Elidable,
			ElideBlocked: c.ElideBlocked,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func printFinding(w io.Writer, f safety.Finding) {
	fmt.Fprintf(w, "%s: %s: %s of heap class %d\n", f.Site, f.Verdict, f.Kind, f.ClassID)
	if len(f.AllocSites) > 0 {
		fmt.Fprintf(w, "    allocated at:")
		for _, s := range f.AllocSites {
			fmt.Fprintf(w, " %s", s)
		}
		fmt.Fprintln(w)
	}
	if len(f.FreeSites) > 0 {
		fmt.Fprintf(w, "    freed at:")
		for _, s := range f.FreeSites {
			fmt.Fprintf(w, " %s", s)
		}
		fmt.Fprintln(w)
	}
	if len(f.Witness) > 0 {
		fmt.Fprintf(w, "    witness:")
		for i, s := range f.Witness {
			if i > 0 {
				fmt.Fprintf(w, " ->")
			}
			fmt.Fprintf(w, " %s[%s]", s.Role, s.Site)
		}
		fmt.Fprintln(w)
	}
}
