// Command figures is the one driver for the paper's evaluation: every
// figure and table of Figs. 2–17 regenerates through one of its
// subcommands, all calling the query layer (fastquery) and the drawing
// packages directly.
//
//	render   the qualitative gallery: Figs. 2, 3/4, 5, 9 and 10b as PNGs
//	usecase  the Section IV beam analysis on its own synthetic run
//	         (Figs. 5–8; -3d for Fig. 10)
//	track    select, trace by identifier and report beam quality per step
//	serial   the serial study, FastBit vs the scan baseline (Figs. 11–13)
//	scale    the modelled parallel study (Figs. 14–17)
//	info     per-timestep record counts and data/index sizes
//	report   one self-contained HTML page: the gallery plus the serial and
//	         scale tables
//
// Usage:
//
//	lwfagen -out data/lwfa -steps 8 -particles 200000
//	figures render -data data/lwfa -out figures/
//	figures serial -data data/lwfa -exp all
//	figures <subcommand> -h
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/fastquery"
	"repro/internal/report"
)

type subcommand struct {
	name, summary string
	run           func(args []string) error
}

var subcommands = []subcommand{
	{"render", "qualitative gallery, Figs. 2, 3/4, 5, 9, 10b", runRender},
	{"usecase", "Section IV beam analysis on a generated run, Figs. 5-8 (-3d: Fig. 10)", runUsecase},
	{"track", "select, trace by identifier, beam quality per step", runTrack},
	{"serial", "serial histogram and identifier study, Figs. 11-13", runSerial},
	{"scale", "modelled parallel histogram and tracking study, Figs. 14-17", runScale},
	{"info", "per-timestep records and data/index sizes", runInfo},
	{"report", "self-contained HTML report: gallery plus serial and scale tables", runReport},
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: figures <subcommand> [flags]")
	for _, c := range subcommands {
		fmt.Fprintf(os.Stderr, "  %-8s %s\n", c.name, c.summary)
	}
	os.Exit(2)
}

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	for _, c := range subcommands {
		if c.name == os.Args[1] {
			log.SetPrefix("figures " + c.name + ": ")
			if err := c.run(os.Args[2:]); err != nil {
				log.Fatal(err)
			}
			return
		}
	}
	usage()
}

// flags returns the flag set of one subcommand and its -data flag, which
// every subcommand but usecase (it generates its own run) requires.
func flags(name string) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("figures "+name, flag.ExitOnError)
	return fs, fs.String("data", "", "dataset directory (required)")
}

// openData parses args and opens the -data dataset, exiting with the
// usage text when it is missing.
func openData(fs *flag.FlagSet, data *string, args []string) (*fastquery.Source, error) {
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *data == "" {
		fs.Usage()
		os.Exit(2)
	}
	return fastquery.Open(*data)
}

// parseBackend maps the -backend flag to a backend; "custom" is the
// paper's name for the sequential-scan baseline.
func parseBackend(s string) (fastquery.Backend, error) {
	switch s {
	case "fastbit":
		return fastquery.FastBit, nil
	case "custom", "scan":
		return fastquery.Scan, nil
	}
	return 0, fmt.Errorf("unknown backend %q", s)
}

// emit prints tables aligned, or as CSV.
func emit(csv bool, tables ...*report.Table) error {
	for _, t := range tables {
		print := t.Fprint
		if csv {
			print = t.FprintCSV
		}
		if err := print(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
