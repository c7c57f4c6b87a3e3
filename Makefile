.PHONY: test verify bench-test examples

test:
	PYTHONPATH=src python3 -m pytest -q

verify:
	sh scripts/verify.sh

bench-test:
	python3 -m pytest perfbench

examples:
	python3 scripts/run_paper_examples.py
	python3 scripts/run_dissection_tour.py
