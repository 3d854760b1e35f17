"""Where the benchmark finds the program and writes its files: the
checkout it runs in, never anywhere else."""

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Spans, op scratch files (caches, journals) and other run output.
OUT_DIR = os.path.join(ROOT, ".hostbench")


def have_source() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def use_source() -> None:
    """Import ``repro`` from this checkout's ``src`` directory."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def scratch_dir() -> str:
    """A fresh directory under ``OUT_DIR``; the caller removes it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix="scratch-", dir=OUT_DIR)
