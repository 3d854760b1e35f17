"""Shared utilities: ASCII tables, the append-only log, the blob store."""

from repro.util.tables import Table

__all__ = ["Table"]
