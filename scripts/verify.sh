#!/bin/sh
# replay the acceptance suite with one pass/fail line per criterion
cd "$(dirname "$0")/.." || exit 2
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" exec python3 -m pytest tests/test_acceptance.py -v -s "$@"
