"""The package's public surface."""
from __future__ import annotations

import cuspidal


def test_public_names_resolve_once():
    names = cuspidal.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(cuspidal, n)] == []
