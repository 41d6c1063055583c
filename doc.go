// Package repro is a from-scratch Go reproduction of "High Performance
// Multivariate Visual Data Exploration for Extremely Large Data" (Rübel
// et al., SC 2008): histogram-based parallel coordinates driven by a
// WAH-compressed bitmap index engine, over synthetic laser wakefield
// accelerator particle data.
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory) and executables under cmd/. Every figure and table of the
// paper's evaluation regenerates through one driver, cmd/figures; the
// per-figure benchmark harness is bench_test.go, with the rendering
// figures' benchmarks beside the driver.
package repro
