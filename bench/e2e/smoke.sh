#!/usr/bin/env bash
# Builds ds_e2e and runs every workload briefly (about 1% of a full run's
# ops, over smaller data), checking correctness only. Exits non-zero on any
# failed check.
set -euo pipefail
cd "$(dirname "$0")/../.."
exec python3 bench/e2e/run.py --workload all --smoke "$@"
