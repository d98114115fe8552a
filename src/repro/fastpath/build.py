"""Deprecated: the compiled hot core was removed; kept for one version."""


def load_fastcore():
    """Return ``None``: there is no compiled core to load."""
    return None
