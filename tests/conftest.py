"""The platform the bit-identity pins (``tests/pins``) were captured on.

The pinned CSV hashes and stdout bytes hold for the numpy and BLAS that
``manifest.json`` names: another LAPACK build may round an ``eigh`` or
``eigvalsh`` differently.  A pin that differs on another platform fails
with that mismatch named, not as a bare hash or text diff.
"""

import json
from pathlib import Path

import numpy as np
import pytest

PINS = Path(__file__).resolve().parent / "pins"


def pinned_platform() -> dict:
    """This interpreter's numpy version and BLAS build, as the pins record them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '').strip()})"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def assert_pinned(actual, expected, what: str) -> None:
    """assert actual == expected, naming a platform mismatch when there is one."""
    if actual != expected:
        recorded = json.loads((PINS / "manifest.json").read_text(encoding="utf-8"))["platform"]
        if recorded != pinned_platform():
            pytest.fail(f"{what} differs from its pin, captured on {recorded}; this platform is {pinned_platform()}")
    assert actual == expected, what
