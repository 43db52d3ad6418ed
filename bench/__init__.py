"""Benchmark harness for the tennis-momentum package (see README.md)."""
