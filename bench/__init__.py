"""Host-time benchmark of the SMARTS reproduction (see bench/README.md).

Run as ``python -m bench`` from the repository root.
"""
