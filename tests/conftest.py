"""Shared fixtures: a deterministic corpus of seeded random matrices.

The corpus is built once per session from fixed seeds, so every run
sees exactly the same 500 matrices: dimensions cycle through 2–5,
spectra are small integers, and every fourth seed plants a defective
eigenvalue (one Jordan block covering a repeated eigenvalue). Heavier
derived data (the eigensystems) is also computed once and shared.
"""

from dataclasses import dataclass

import pytest
from hypothesis import settings

from exacteig import (
    EigenSystem,
    GeneratorConfig,
    Matrix,
    Spectrum,
    SplitMix64,
    eigensystem,
    random_spectral_matrix,
)

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

CORPUS_SIZE = 500
_DIMS = [2, 3, 3, 4, 2, 3, 4, 2, 3, 5]


@dataclass(frozen=True)
class CorpusEntry:
    seed: int
    matrix: Matrix
    spectrum: Spectrum
    planned_defective: bool


def corpus_config(seed):
    """The generator recipe of one corpus matrix: dimension, spectrum,
    and Jordan structure all derived from the seed."""
    rng = SplitMix64(seed)
    dim = _DIMS[seed % len(_DIMS)]
    distinct = rng.randint(1, min(3, dim))
    values = []
    while len(values) < distinct:
        candidate = rng.randint(-4, 4)
        if candidate not in values:
            values.append(candidate)
    mults = [1] * distinct
    for _ in range(dim - distinct):
        mults[rng.randint(0, distinct - 1)] += 1
    spectrum = Spectrum(list(zip(values, mults)))
    blocks = None
    if seed % 4 == 3:
        for value, mult in spectrum.pairs:
            if mult >= 2:
                blocks = {value: (mult,)}
                break
    return GeneratorConfig(dim=dim, spectrum=spectrum, seed=rng.next_u64(),
                           entry_bound=2, jordan_blocks=blocks)


def build_corpus_entry(seed):
    """One deterministic matrix, from ``corpus_config(seed)``."""
    config = corpus_config(seed)
    matrix, _ = random_spectral_matrix(config)
    return CorpusEntry(seed, matrix, config.spectrum,
                       config.jordan_blocks is not None)


@pytest.fixture(scope="session")
def corpus():
    return [build_corpus_entry(seed) for seed in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def corpus_systems(corpus) -> "list[EigenSystem]":
    return [eigensystem(entry.matrix, entry.spectrum) for entry in corpus]


@pytest.fixture
def fresh():
    """Make a new matrix equal to a given one that has computed no fact
    yet (no characteristic polynomial, no verified spectrum), so that a
    counted call on it counts everything it computes."""
    return lambda a: Matrix.from_rows(
        [a.row_entries(i) for i in range(a.rows)])
