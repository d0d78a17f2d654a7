"""Pinned outputs for n = 6–12 and the size of a stored matrix.

The corpus stops at n = 5, so these six seeded matrices with planted
Jordan blocks pin the larger sizes: SHA-256 digests of the canonical
text of the eigenvectors, the Jordan decomposition (P, J, P⁻¹) and
A¹⁰⁰. The digests were recorded with the scalar-loop matrix kernels
that preceded the fraction-free core; any change to them is a change
of output.
"""

import hashlib
import json
import tracemalloc

import pytest

from exacteig import (
    GeneratorConfig,
    Matrix,
    Spectrum,
    eigensystem,
    format_scalar,
    jordan_form,
    matrix_power,
    matrix_to_json,
    parse_scalar,
    random_spectral_matrix,
    vector_to_json,
)

# (dim, {eigenvalue: Jordan block sizes}, generator seed)
LARGE_CASES = (
    (6, {"2": (2, 1), "-1": (3,)}, 11),
    (7, {"1": (3, 1), "-3": (2, 1)}, 12),
    (8, {"1+i": (3, 1), "-2": (4,)}, 13),
    (9, {"0": (4, 1), "3": (4,)}, 14),
    (10, {"-2": (4, 1), "1": (5,)}, 15),
    (12, {"4": (5, 1), "-1": (6,)}, 16),
)

PINNED = {
    "n6-seed11": {
        "eigenvectors":
            "4c6efb98ddf35074f7290ba0066cf5522879d7536eb7ec1b815c34c4aad148c1",
        "jordan":
            "742433a1a53d8bf79100e783ca0433c5293e532ab34f48fc71bf061120c01524",
        "power":
            "6006ddd3f38241fad94d6a4726e8c15714a26c033732680960cd3cdfb44b898a",
    },
    "n7-seed12": {
        "eigenvectors":
            "8e9364e82e711bb749a59a1a1edcb58f6dda3c3693375e7de7dec4a4e7c5f6a8",
        "jordan":
            "a88151bc2daee82bef27a1f3efca81a3e79fcde7893501fca6ef5e7f5070f2cd",
        "power":
            "c26db83926733269912a7faa8947e1e4052ba74f07548f7794ca43f84975fdf0",
    },
    "n8-seed13": {
        "eigenvectors":
            "db24914e428a271f29fa119c0f0037199a685943714995d6af96bb300e8acc96",
        "jordan":
            "bb2e94091841bd21c3b3d84969f6ade3d341f04c5484b01c6f63a15b479b6add",
        "power":
            "1a8b5a6b5b585bee6ad748cf1bd073a456e87bb26ab1996412a333cd7b3cbf8a",
    },
    "n9-seed14": {
        "eigenvectors":
            "eaf6a0f653a42f16e7ab910f213f29c4982c254d39bb713b6b18c0991935baca",
        "jordan":
            "ea1fab42b20ea1b03d45fe7c2bb7f6a86a7e190a4ee0ba399169b4084557c658",
        "power":
            "2b2d782e07df18766ad9d736ee1bf361d076f139e83cb17a9d859c2c3f3b3eef",
    },
    "n10-seed15": {
        "eigenvectors":
            "157ee4015a9ae9f1f028d41bc2d9e9c2fad02a9cca020b8413137b8219b02139",
        "jordan":
            "8a8d5c291e22ee403cf95a7d8429f9d186e3a1580278a448cd722f77eb588176",
        "power":
            "2c5904c717105c698332c57f7020c342b1204739d5a80f789648b36dfb4e1f77",
    },
    "n12-seed16": {
        "eigenvectors":
            "89eef9cf41d1acf323627fd432c3fce3f03b2539033b0cbb43b4c727a136b625",
        "jordan":
            "7d3b85b6843a03310eaa4e739aef4922dfcbe6a169bcecaf4dcc3f1979e4f555",
        "power":
            "e90fea9f494ce092baa5d6d7b9c856f9404a748a2f61944a21dc62290467c7a4",
    },
}


def large_case(dim, blocks, seed):
    values = {parse_scalar(k): sizes for k, sizes in blocks.items()}
    spectrum = Spectrum([(v, sum(sizes)) for v, sizes in values.items()])
    config = GeneratorConfig(dim=dim, spectrum=spectrum, seed=seed,
                             entry_bound=2, jordan_blocks=values)
    matrix, _ = random_spectral_matrix(config)
    return matrix, spectrum


def _digest(payload):
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_digests(matrix, spectrum):
    system = eigensystem(matrix, spectrum)
    form = jordan_form(matrix, spectrum)
    power = matrix_power(matrix, 100)
    return {
        "eigenvectors": _digest(
            [[format_scalar(space.eigenvalue),
              [vector_to_json(v) for v in space.vectors]]
             for space in system]),
        "jordan": _digest([matrix_to_json(m)["entries"]
                           for m in (form.p, form.j, form.p_inv)]),
        "power": _digest(matrix_to_json(power)["entries"]),
    }


@pytest.mark.parametrize("dim, blocks, seed", LARGE_CASES)
def test_outputs_match_pinned_digests(dim, blocks, seed):
    matrix, spectrum = large_case(dim, blocks, seed)
    assert output_digests(matrix, spectrum) == PINNED[f"n{dim}-seed{seed}"]


def test_small_integer_matrix_stays_small():
    rows = [[(5 * i + 3 * j) % 13 - 6 for j in range(12)] for i in range(12)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        matrix = Matrix(rows)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert matrix.entry(11, 11) == rows[11][11]
    assert retained < 8 * 1024
