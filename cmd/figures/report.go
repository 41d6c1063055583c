package main

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/report"
)

// runReport writes one self-contained HTML page: the render gallery, the
// serial study's tables (Figs. 11–13) and the scale study's (Figs.
// 14–17 with the scheduling ablation), all from one dataset.
func runReport(args []string) error {
	fs, data := flags("report")
	var (
		out   = fs.String("out", "report.html", "output HTML path")
		bins  = fs.Int("bins", 256, "histogram bins per axis for the scale study")
		title = fs.String("title", "", "optional report title override")
	)
	src, err := openData(fs, data, args)
	if err != nil {
		return err
	}
	if *title == "" {
		*title = fmt.Sprintf("Query-driven visual exploration report — %s", *data)
	}
	rep := &report.HTMLReport{
		Title: *title,
		Intro: fmt.Sprintf("%d timesteps. Reproduction of Rübel et al., SC 2008: histogram-based "+
			"parallel coordinates over a FastBit-style bitmap index, compared against the "+
			"sequential-scan baseline.", src.Steps()),
	}
	figs, err := gallery(src, -1, "")
	if err != nil {
		return err
	}
	for _, f := range figs {
		var buf bytes.Buffer
		if err := f.canvas.EncodePNG(&buf); err != nil {
			return err
		}
		rep.Sections = append(rep.Sections, report.Section{Title: f.caption, Text: f.file, PNG: buf.Bytes()})
	}
	tables, err := serialStudy(src, -1, "all", 3)
	if err != nil {
		return err
	}
	scale := &scaleStudy{
		src:       src,
		nodes:     []int{1, 2, 5, 10, 20, 50, 100},
		bins:      *bins,
		assign:    cluster.Strided,
		schedules: true,
	}
	st, err := scale.run("all", 500)
	if err != nil {
		return err
	}
	for _, t := range append(tables, st...) {
		rep.Sections = append(rep.Sections, report.Section{Title: t.Title, Table: t})
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := rep.WriteHTML(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}
