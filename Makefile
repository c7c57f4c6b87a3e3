.PHONY: test verify bench-test bench examples gate

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
