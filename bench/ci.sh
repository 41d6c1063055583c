#!/usr/bin/env bash
# Smoke run for CI: the harness's own tests, then the whole suite with 3 s
# windows. Fails on a failed operation, a wrong answer or a broken validity
# gate. Not wired into .github/workflows/ci.yml yet (outside this
# directory); see README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
(cd "$root/bench" && go vet ./... && go test ./...)
exec bash "$root/bench/run.sh" -quick
