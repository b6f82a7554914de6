"""Benchmark of the flagship pipelines; see README.md."""
