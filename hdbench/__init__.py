"""Benchmark for hierdraft: seeded decode workloads, end-to-end and per-layer metrics."""
