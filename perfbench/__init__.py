"""Benchmark of the cliquedec command line; see run.py."""
