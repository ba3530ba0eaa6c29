"""perfbench: the repo's gated benchmark (see perfbench/README.md).

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` (the contract in ``BENCHMARK.json``).
"""
