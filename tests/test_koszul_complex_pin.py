"""Pinned Koszul matrices: the sha256 of d0, d1 and d2 of `build_complex`.

`tests/data/koszul_complex_hashes.json` holds, for each case, the sha256
of the sorted-key JSON {"d0": ..., "d1": ..., "d2": ...}, every entry
written as `Poly.to_json`.  A change to straightening or assembly must
leave every matrix entry, and so every hash, unchanged.

To regenerate the data file after an intended change of the matrices:

    PYTHONPATH=src python tests/test_koszul_complex_pin.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from powerops.koszul import build_complex
from powerops.opmodules import omega, omega_power, two_sphere

PINNED = Path(__file__).resolve().parent / "data" / \
    "koszul_complex_hashes.json"

CASES = {"omega 6": (omega, 6),
         "omega^2 4": (lambda: omega_power(2), 4),
         "two_sphere 4": (two_sphere, 4)}


def digest(name):
    """The sha256 of the sorted-key JSON of one case's d0, d1 and d2."""
    module, k = CASES[name]
    cx = build_complex(module(), k)
    text = json.dumps({label: [[e.to_json() for e in row] for row in mat.rows]
                       for label, mat in (("d0", cx.d0), ("d1", cx.d1),
                                          ("d2", cx.d2))}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_pinned_file_lists_the_cases(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matrices_are_unchanged(pinned, name):
    assert digest(name) == pinned[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python "
                 "tests/test_koszul_complex_pin.py --write")
    PINNED.write_text(json.dumps({name: digest(name) for name in CASES},
                                 indent=1, sort_keys=True) + "\n")
