#!/usr/bin/env bash
# Full reproduction pipeline: generate datasets, then run every subcommand
# of the figures driver — the serial and parallel studies, the qualitative
# gallery, the Section IV use case, the beam-quality history and the
# self-contained HTML report. Outputs land in ./out (override with $OUT).
#
# Usage:  scripts/reproduce.sh [small|full]
#   small  quick pass (~1 minute, default)
#   full   the EXPERIMENTS.md configuration (~10 minutes, ~1.5 GB of data)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-small}"
OUT="${OUT:-out}"
mkdir -p "$OUT"

case "$MODE" in
small)
    SERIAL_STEPS=6;  SERIAL_PARTICLES=100000;  SERIAL_BEAM=500
    SCALE_STEPS=20;  SCALE_PARTICLES=20000;    SCALE_BEAM=100
    TRACK_HITS=100
    ;;
full)
    SERIAL_STEPS=6;  SERIAL_PARTICLES=1000000; SERIAL_BEAM=2000
    SCALE_STEPS=100; SCALE_PARTICLES=100000;   SCALE_BEAM=500
    TRACK_HITS=500
    ;;
*)
    echo "usage: $0 [small|full]" >&2; exit 2 ;;
esac

echo "== building tools"
BIN="$OUT/bin"
mkdir -p "$BIN"
go build -o "$BIN/" ./cmd/lwfagen ./cmd/figures

echo "== generating serial dataset ($SERIAL_STEPS x $SERIAL_PARTICLES particles)"
"$BIN/lwfagen" -out "$OUT/serial" -steps "$SERIAL_STEPS" \
    -particles "$SERIAL_PARTICLES" -beam "$SERIAL_BEAM" -q

echo "== generating scaling dataset ($SCALE_STEPS x $SCALE_PARTICLES particles)"
"$BIN/lwfagen" -out "$OUT/scaling" -steps "$SCALE_STEPS" \
    -particles "$SCALE_PARTICLES" -beam "$SCALE_BEAM" -q

echo "== dataset summary"
"$BIN/figures" info -data "$OUT/serial" | tee "$OUT/info.txt"

echo "== serial study (Figs. 11-13)"
"$BIN/figures" serial -data "$OUT/serial" -exp all -runs 3 \
    | tee "$OUT/serial_results.txt"

echo "== scaling study (Figs. 14-17 + scheduling ablation)"
"$BIN/figures" scale -data "$OUT/scaling" -exp all \
    -track-hits "$TRACK_HITS" -schedules | tee "$OUT/scaling_results.txt"

echo "== qualitative figures (Figs. 2/4/5/9/10b)"
"$BIN/figures" render -data "$OUT/serial" -out "$OUT/figures"

echo "== Section IV use case (Figs. 5-8, then Fig. 10 in 3D)"
"$BIN/figures" usecase -out "$OUT/usecase" | tee "$OUT/usecase.txt"
"$BIN/figures" usecase -3d -out "$OUT/usecase3d" | tee "$OUT/usecase3d.txt"

echo "== tracking and beam quality history"
"$BIN/figures" track -data "$OUT/serial" -query "px > 5e10" \
    | tee "$OUT/track.txt"

echo "== HTML report"
"$BIN/figures" report -data "$OUT/serial" -out "$OUT/report.html"

echo "== done; artifacts in $OUT/"
