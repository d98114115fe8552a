"""The removed compiled core's loader, kept only because
``benchmarks/e2e/e2e_bench.py``'s ``prepare`` imports it."""


def load_fastcore():
    """Return ``None``: there is no compiled core to load."""
    return None
