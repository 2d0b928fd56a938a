"""Operator-level distribution gate: the structural operators and seeding
still make what they made when distributions.json was written
(make_distributions.py writes it and says which changes must pass it as
committed).

Every table is drawn again under a seed other than the fixture's and
compared with the fixture's table by a chi-square test of homogeneity, cells
with an expected count below 5 pooled. The tests are Holm-corrected over all
tables at LEVEL. Fixed seeds make the verdict a function of the code."""

import json

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from make_distributions import DRAWS, FIXTURE, SEED, TABLES, tables

RECORDED = json.loads(FIXTURE.read_text(encoding="utf-8"))
LEVEL = 0.01
DRAW_SEED = 2


def homogeneity_p(recorded: dict, drawn: dict) -> float:
    """p of a chi-square test that two count tables over cell keys come from
    one distribution. Cells whose expected count is below 5 are pooled into
    one, and that one into the smallest other cell if it is still below 5."""
    cells = sorted(recorded.keys() | drawn.keys())
    table = np.array([[counts.get(cell, 0) for cell in cells] for counts in (recorded, drawn)])
    share = table.sum(1).min() / table.sum()  # a cell's smallest expected count per count
    small = table.sum(0) * share < 5
    if small.any():
        pooled, table = table[:, small].sum(1), table[:, ~small]
        if table.shape[1] and pooled.sum() * share < 5:
            table[:, np.argmin(table.sum(0))] += pooled
        else:
            table = np.column_stack([table, pooled])
    if table.shape[1] < 2:
        return 1.0
    return float(chi2_contingency(table, correction=False).pvalue)


def holm(pvalues: dict) -> dict:
    """Holm-adjusted p per name: the running maximum of (m - rank) * p over
    the p values in ascending order, capped at 1."""
    adjusted, running = {}, 0.0
    for rank, name in enumerate(sorted(pvalues, key=pvalues.get)):
        running = max(running, min(1.0, (len(pvalues) - rank) * pvalues[name]))
        adjusted[name] = running
    return adjusted


@pytest.fixture(scope="module")
def adjusted():
    drawn = tables(DRAW_SEED)
    return holm({name: homogeneity_p(RECORDED["tables"][name], drawn[name]) for name in TABLES})


def test_fixture_holds_every_table_in_full():
    assert (RECORDED["draws"], RECORDED["seed"]) == (DRAWS, SEED) and SEED != DRAW_SEED
    assert list(RECORDED["tables"]) == TABLES
    assert all(sum(table.values()) == DRAWS for table in RECORDED["tables"].values())


def test_the_comparison_tells_two_operators_apart():
    recorded = RECORDED["tables"]
    assert homogeneity_p(recorded["k4/add_node"], recorded["k4/add_node"]) == 1.0
    assert homogeneity_p(recorded["k4/add_connection"], recorded["k4/delete_connection"]) < 1e-12


@pytest.mark.parametrize("name", TABLES)
def test_table_matches_the_fixture(adjusted, name):
    assert adjusted[name] >= LEVEL, f"{name}: Holm-adjusted p {adjusted[name]:.3g}"
