"""Same bits: the benchmark's seed list 0 trains to the fingerprints recorded
in fingerprints.json (make_fingerprints.py writes it and says how). A change
that alters any draw, operator order or step-size rule moves them.

The outcome of every run is pinned on every machine. The best fitness and
the per-generation hash are pinned only under the OpenBLAS kernel the
fixture records, since another kernel may round a fitness differently."""

import json

import pytest

from make_fingerprints import FITNESS_BITS, FIXTURE, OUTCOME, WORKLOADS, blas_core, fingerprints

RECORDED = json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=list(WORKLOADS))
def runs(request, tmp_path_factory):
    """(workload, its fingerprints now, its recorded fingerprints)."""
    name = request.param
    return name, fingerprints(name, tmp_path_factory.mktemp(name)), RECORDED["workloads"][name]


def test_outcomes_are_pinned(runs):
    name, got, recorded = runs
    assert [[run[key] for key in OUTCOME] for run in got] == \
        [[run[key] for key in OUTCOME] for run in recorded], name


def test_fitness_bits_are_pinned(runs):
    core = blas_core()
    if core != RECORDED["blas_core"]:
        pytest.skip(f"fitness bits are recorded under OpenBLAS core {RECORDED['blas_core']!r}; "
                    f"this numpy's OpenBLAS reports {core!r}")
    name, got, recorded = runs
    assert [[run[key] for key in FITNESS_BITS] for run in got] == \
        [[run[key] for key in FITNESS_BITS] for run in recorded], name
