"""Exact computation engine for equivariant monopole Floer homology on
abstract monopole data."""

__version__ = "0.2.0"
