"""Every benchmark operation's output digest, pinned.

Runs each round of ``bench/workloads.py`` at seeds 1 and 7 and compares
``digest(canonical_text)`` of every operation with the values below, so a
change that alters any benchmark output fails here.  The workloads module
is imported as it is; nothing under ``bench/`` is changed.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _p in (str(ROOT / "bench"), str(ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import workloads  # noqa: E402

PINNED = {
    ("eis-rank", 1): {
        "rank-k1": "f498736a8d43c2d5",
        "rank-k2": "0f65e3d352bb00a8",
        "rank-k3": "143cc03d3a6bbe92",
    },
    ("eis-rank", 7): {
        "rank-k1": "0685a8677f515e22",
        "rank-k2": "0622da8722a7655d",
        "rank-k3": "2629455a4c5728a9",
    },
    ("distribution", 1): {
        "lemma-k2-t^2+1-t+1": "9076976dac873ba1",
        "lemma-k2-t^2+2t+2-t": "2341eafa1a09fd1f",
    },
    ("distribution", 7): {
        "lemma-k2-t^2+t+2-t+1": "e9bae18f4f93bcca",
        "lemma-k2-t^2+1-t+2": "c4ce6de64058e1f4",
    },
    ("verify-mix", 1): {
        "eigen": "46186839432d3c1a",
        "twist-commute": "a004d3a9b3b81049",
        "convolution": "6271f82545400711",
        "normproj": "f8351cf6d87619d3",
        "congruence": "fe4e6e078d3f4b13",
        "table": "a19d6b1c6603d23e",
    },
    ("verify-mix", 7): {
        "eigen": "69c61c020ed84abc",
        "twist-commute": "a004d3a9b3b81049",
        "convolution": "4881285a899785a0",
        "normproj": "f8351cf6d87619d3",
        "congruence": "d9b86dfaa2390d94",
        "table": "a19d6b1c6603d23e",
    },
}


@pytest.mark.parametrize("workload, seed", sorted(PINNED),
                         ids=["%s-seed%d" % key for key in sorted(PINNED)])
def test_round_digests_are_pinned(workload, seed):
    _, ops = workloads.build_round(workload, seed)
    got = {}
    for op in ops:
        ok, text = op.check(op.run())
        assert ok, op.label
        got[op.label] = workloads.digest(text)
    assert got == PINNED[workload, seed]
