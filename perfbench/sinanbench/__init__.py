"""Benchmark of the Sinan reproduction; see ``perfbench/NOTES.md``."""
