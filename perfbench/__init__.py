"""End-to-end benchmark of the reproduction: workloads, checks, tracing.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
