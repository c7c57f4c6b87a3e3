.PHONY: test verify bench-test examples

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q --continue-on-collection-errors

verify:
	sh scripts/verify.sh

bench-test:
	python3 -m pytest perfbench

examples:
	python3 scripts/run_paper_examples.py
	python3 scripts/run_dissection_tour.py
