"""End-to-end benchmark of the serving, generation and training stacks.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``run.py`` for the output
contract and ``BENCHMARK.json`` for the workloads and metrics.
"""
