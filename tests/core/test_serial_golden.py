"""The serial asynchronous engine reproduces a fixture written by a reference tree.

See :mod:`helpers.serial_golden` for what each cell pins and how to
regenerate the fixture.
"""

from __future__ import annotations

import json

import pytest

from helpers.serial_golden import FIXTURE, GOLDEN_CELLS, record_cell

GOLDEN = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell():
    assert sorted(GOLDEN) == sorted(cell.id for cell in GOLDEN_CELLS)


@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=[cell.id for cell in GOLDEN_CELLS])
def test_serial_outcomes_match_golden(cell):
    assert record_cell(cell) == GOLDEN[cell.id]
