"""The chunked pooled clock-view path reproduces a fixture written by a reference tree.

See :mod:`helpers.pooled_clock_golden` for what each cell pins, which cells
are left out, and how to regenerate the fixture.  Each cell runs on both
backends (the jit consumer uncompiled when numba is absent).
"""

from __future__ import annotations

import json

import pytest

from helpers.pooled_clock_golden import FIXTURE, GOLDEN_CELLS, record_cell

GOLDEN = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell():
    assert sorted(GOLDEN) == sorted(cell.id for cell in GOLDEN_CELLS)


@pytest.mark.parametrize("backend", ["numpy", "jit"])
@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=[cell.id for cell in GOLDEN_CELLS])
def test_pooled_clock_outcomes_match_golden(cell, backend):
    assert record_cell(cell, backend) == GOLDEN[cell.id]
