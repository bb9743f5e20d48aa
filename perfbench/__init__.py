"""Seeded end-to-end and per-layer benchmark for monofloer (see README.md)."""
