"""The repository benchmark: four named workloads over the QCFE serving
tiers and the offline QCFE fit.

Run one workload with ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md`` for the workloads, the metrics and which layer
metric should move which end-to-end metric.
"""
