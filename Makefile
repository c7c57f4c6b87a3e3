.PHONY: test verify bench-test bench bench-pairs examples gate gate-diff check importtime

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q --continue-on-collection-errors

verify:
	sh scripts/verify.sh

bench-test:
	python3 -m pytest perfbench

bench:
	for w in catalog roundtrip families; do \
		python3 perfbench/run.py --workload $$w --seed 1 || exit 1; \
	done

examples:
	python3 scripts/run_paper_examples.py
	python3 scripts/run_dissection_tour.py

gate:
	python3 scripts/exact_gate.py

# everything that calls the library by name (the tests, the benchmark's
# tests and the example scripts), and the exact gate against HEAD: run it
# before changing a public name or an answer
check: test bench-test examples gate-diff

# exact-gate digests of BASE (default HEAD, so a plain `make gate-diff`
# checks the uncommitted changes; unpacked with git archive) against this
# checkout, both read by this checkout's scripts/exact_gate.py; fails on
# any difference
BASE ?= HEAD

gate-diff:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	git archive "$(BASE)" --prefix=base/ | tar -x -C "$$tmp" && \
	python3 scripts/exact_gate.py "$$tmp/base" > "$$tmp/base.txt" && \
	python3 scripts/exact_gate.py > "$$tmp/head.txt" && \
	diff "$$tmp/base.txt" "$$tmp/head.txt" && \
	echo "gate-diff: every digest identical to $(BASE)"

# alternating runs of perfbench/run.py on BASE (unpacked with git archive)
# and on this checkout, over seeds 1-3; medians, quartiles and wins per metric
WORKLOAD ?= families
PAIRS ?= 10

bench-pairs:
	python3 scripts/bench_pairs.py --base "$(BASE)" --workload $(WORKLOAD) --pairs $(PAIRS)

# the 20 slowest lines of `python3 -X importtime` for `import skewbrauer`,
# by cumulative microseconds (the second column); the table goes to stderr
importtime:
	@PYTHONPATH=src python3 -X importtime -c 'import skewbrauer' 2>&1 >/dev/null | \
	sort -t'|' -k2 -n -r | head -20
