"""Frozen per-block reference outputs for the transport golden suite."""
