"""Tests of the benchmark's own helpers (run with pytest from the repo root)."""
