"""Benchmark of the filingswarm package: workloads, tracing and gates."""
