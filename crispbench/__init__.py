"""The repository benchmark: three serving workloads over the real CRISP stack.

Run ``python3 crispbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``crispbench/README.md``.
"""
