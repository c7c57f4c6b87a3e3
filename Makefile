.PHONY: test verify bench-test examples

test:
	PYTHONPATH=src python3 -m pytest -q

verify:
	PYTHONPATH=src python3 -m pytest tests/test_acceptance.py -v -s

bench-test:
	python3 -m pytest perfbench

examples:
	python3 scripts/run_paper_examples.py
	python3 scripts/run_dissection_tour.py
