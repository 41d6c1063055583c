package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/fastbit"
	"repro/internal/report"
)

// runInfo summarises a dataset: per-timestep record counts, data and
// index file sizes, indexed variables — the numbers the paper reports for
// its datasets (e.g. "each timestep ≈7 GB including ≈2 GB of index").
func runInfo(args []string) error {
	fs, data := flags("info")
	src, err := openData(fs, data, args)
	if err != nil {
		return err
	}
	ds := src.Dataset()
	fmt.Printf("dataset %q: %d timesteps, variables %v\n\n",
		ds.Meta.Name, ds.Meta.Steps, ds.Meta.Variables)

	size := func(path string) int64 {
		st, err := os.Stat(path)
		if err != nil {
			return 0
		}
		return st.Size()
	}
	table := report.NewTable("", "step", "records", "data_mb", "index_mb", "indexed_vars")
	var totalData, totalIndex int64
	var totalRecords uint64
	for t := 0; t < src.Steps(); t++ {
		st, err := src.OpenStep(t)
		if err != nil {
			return err
		}
		rows := st.Rows()
		st.Close()
		totalRecords += rows

		dataSize := size(ds.StepPath(t))
		totalData += dataSize
		indexSize := int64(0)
		indexedVars := "-"
		if ds.HasIndex(t) {
			indexSize = size(ds.IndexPath(t))
			if ls, err := fastbit.OpenLazy(ds.IndexPath(t)); err == nil {
				vars := ls.Columns()
				if ls.IDVar() != "" {
					vars = append(vars, ls.IDVar())
				}
				indexedVars = strings.Join(vars, ",")
				ls.Close()
			}
		}
		totalIndex += indexSize
		table.AddRow(
			fmt.Sprintf("%d", t),
			fmt.Sprintf("%d", rows),
			fmt.Sprintf("%.2f", float64(dataSize)/1e6),
			fmt.Sprintf("%.2f", float64(indexSize)/1e6),
			indexedVars,
		)
	}
	if err := table.Fprint(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("total: %d records, %.2f MB data + %.2f MB index (%.1f%% overhead)\n",
		totalRecords, float64(totalData)/1e6, float64(totalIndex)/1e6,
		100*float64(totalIndex)/float64(max(totalData, 1)))
	return nil
}
