#!/usr/bin/env sh
# Tier-1 verify, twice: once with numpy visible (the typed column
# kernels take their vector lanes) and once with REPRO_NO_NUMPY=1 (the
# pure-stdlib array fallback).  Both runs must be green — the kernel
# layer in src/repro/colkernels.py is a cache over the list columns,
# never an authority, so no answer may depend on which mode is active.
#
# Usage: scripts/tier1_both_modes.sh [extra pytest args...]
#   e.g. scripts/tier1_both_modes.sh -m columnar

set -eu
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 (numpy mode) =="
python -m pytest -x "$@"

echo "== tier-1 (forced stdlib fallback: REPRO_NO_NUMPY=1) =="
REPRO_NO_NUMPY=1 python -m pytest -x "$@"

echo "== tier-1 green in both kernel modes =="
