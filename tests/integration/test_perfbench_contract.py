"""The benchmark's entry-point contract with ``src/``.

``perfbench/tracer.py`` wraps each layer's public entry points by name
(``module.__dict__[name]``) for the traced benchmark run.  Renaming or
removing one of them makes ``perfbench/run.py --trace 1`` raise
``KeyError``; this test moves that failure into tier-1.  It only reads
``perfbench/``.
"""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

#: Entry points ``tracer.install`` wraps (layer forwards, im2col/col2im
#: in both their homes, backward, quantizers, injector, optimizer,
#: loader, evaluation, fit, compiled run, registry, explore, serving).
EXPECTED_PATCHES = 25


def test_every_traced_entry_point_installs_and_reverts(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_mod = importlib.import_module("tracer")
    tracer = tracer_mod.Tracer()
    with tracer.active("check"):
        installed = list(tracer._patches)
        assert len(installed) == EXPECTED_PATCHES
        for owner, attr, original in installed:
            assert owner.__dict__[attr] is not original, (owner, attr)
    assert tracer._patches == []
    assert not tracer.enabled
    for owner, attr, original in installed:
        assert owner.__dict__[attr] is original, (owner, attr)
