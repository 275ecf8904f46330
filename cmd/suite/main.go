// Command suite runs the full-registry scenario sweep: every system in the
// systems registry x every registered word-length search strategy x a grid
// of noise budgets, across a worker pool. It prints the rendered table to
// stdout and writes the machine-readable JSON report (the artifact CI
// archives per PR). The exit status is non-zero if any cell fails, so the
// command doubles as the CI smoke gate over the whole strategy matrix.
//
// Usage:
//
//	suite                         # full grid -> SUITE_report.json
//	suite -short                  # one budget per pair at reduced scale (CI smoke)
//	suite -strategies hybrid,anneal -budgets 8,12 -out /tmp/report.json
//	suite -spec examples/specs    # user spec files join the registry sweep
//
// -spec accepts a single .json spec file or a directory of them; the
// described systems run through the same strategy x budget grid as the
// registry, and every report row carries the system's spec digest (the
// optimization service's cache identity).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/spec"
	"repro/internal/suite"
)

func main() {
	var (
		short      = flag.Bool("short", false, "smoke mode: one budget per system x strategy pair at reduced scale")
		out        = flag.String("out", "SUITE_report.json", "JSON report path ('-' for stdout, '' to skip)")
		npsd       = flag.Int("npsd", 0, "PSD bins for the evaluation engine (0 = default)")
		minFrac    = flag.Int("min", 0, "minimum fractional width (0 = default)")
		maxFrac    = flag.Int("max", 0, "maximum fractional width (0 = default)")
		budgets    = flag.String("budgets", "", "comma-separated uniform probe widths defining the budget grid (empty = default)")
		strategies = flag.String("strategies", "", "comma-separated strategy names (empty = every registered strategy)")
		workers    = flag.Int("workers", 0, "cells in flight (0 = GOMAXPROCS)")
		seed       = flag.Int64("seed", 1, "seed for randomized strategies")
		specPath   = flag.String("spec", "", "spec file or directory of *.json specs to sweep alongside the registry")
	)
	flag.Parse()

	cfg := suite.Config{
		NPSD:    *npsd,
		MinFrac: *minFrac, MaxFrac: *maxFrac,
		Workers: *workers,
		Seed:    *seed,
		Short:   *short,
	}
	var err error
	if cfg.BudgetWidths, err = parseWidths(*budgets); err != nil {
		fmt.Fprintf(os.Stderr, "suite: %v\n", err)
		os.Exit(2)
	}
	if s := strings.TrimSpace(*strategies); s != "" {
		cfg.Strategies = strings.Split(s, ",")
	}
	if *specPath != "" {
		specs, err := loadSpecs(*specPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "suite: %v\n", err)
			os.Exit(2)
		}
		cfg.Specs = specs
	}

	start := time.Now()
	rep, err := suite.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "suite: %v\n", err)
		os.Exit(1)
	}
	rep.Render(os.Stdout)
	fmt.Printf("\n(%d cells in %v)\n", len(rep.Cells), time.Since(start).Round(time.Millisecond))

	switch *out {
	case "":
	case "-":
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "suite: %v\n", err)
			os.Exit(1)
		}
	default:
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "suite: %v\n", err)
			os.Exit(1)
		}
		werr := rep.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "suite: %v\n", werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "suite: wrote %s\n", *out)
	}
	if n := rep.Failures(); n > 0 {
		fmt.Fprintf(os.Stderr, "suite: %d/%d cells failed\n", n, len(rep.Cells))
		os.Exit(1)
	}
}

// loadSpecs parses one spec file, or every *.json file of a directory in
// name order.
func loadSpecs(path string) ([]*spec.Spec, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no *.json specs in %s", path)
		}
		sort.Strings(files)
	}
	var out []*spec.Spec
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		sp, err := spec.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, sp)
	}
	return out, nil
}

func parseWidths(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad budget width %q", part)
		}
		out = append(out, w)
	}
	return out, nil
}
