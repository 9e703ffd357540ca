"""Benchmark for permlearn: four closed-loop workloads plus a traced run.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload from the root of a checkout and prints its metrics; see
``perfbench/README.md`` for the workloads, the metrics and the layer map.
"""
