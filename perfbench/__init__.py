"""Benchmark for covmap: workloads, output checks and a span tracer.

Run one workload with `python3 perfbench/run.py --workload NAME --seed N`;
see perfbench/README.md.
"""
