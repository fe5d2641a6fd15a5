"""Pinned Koszul reports: the sorted-key JSON of every report kind.

`tests/data/koszul_reports.json` holds the output of `tor_reduced` (with
its `d1`/`d2` strings), `acyclicity_check`, `truncation_stability_check`
and `identification_check` on a fixed set of modules.  A refactor of the
Koszul layer must leave every byte of it unchanged.

To regenerate the data file after an intended change of output:

    PYTHONPATH=src python tests/test_koszul_pin.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from powerops.opmodules import (standard_module, omega, omega_power,
                                two_sphere, tensor)
from powerops.koszul import (acyclicity_check, tor_reduced,
                             truncation_stability_check,
                             identification_check)

PINNED = Path(__file__).resolve().parent / "data" / "koszul_reports.json"

_MODULES = {"R": standard_module, "omega": omega,
            "omega^2": lambda: omega_power(2), "two_sphere": two_sphere}
_TOR = {"omega^%d" % k: (lambda k=k: omega_power(k)) for k in range(4)}
_TOR.update(two_sphere=two_sphere,
            omega_x_two_sphere=lambda: tensor(omega(), two_sphere()))

CASES = ([("tor", name) for name in _TOR]
         + [("acyclic", name, 3, field) for field in ("q", "f2")
            for name in ("R", "omega", "omega^2", "two_sphere")]
         + [("acyclic", "omega", 4, field) for field in ("q", "f2")]
         + [("stability", "omega", [2, 3, 4])]
         + [("identification",)])


def report(case):
    """Sorted-key JSON text of the report that one case names."""
    kind = case[0]
    if kind == "tor":
        out = tor_reduced(_TOR[case[1]]())
    elif kind == "acyclic":
        out = acyclicity_check(_MODULES[case[1]](), case[2], case[3])
    elif kind == "stability":
        out = truncation_stability_check(_MODULES[case[1]](), tuple(case[2]))
    else:
        out = identification_check()
    return json.dumps(out, sort_keys=True)


def _case_id(case):
    return " ".join(str(part) for part in case)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_pinned_file_lists_the_cases(pinned):
    assert [entry["case"] for entry in pinned] == \
        [_case_id(case) for case in CASES]


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[_case_id(case) for case in CASES])
def test_report_is_byte_identical(pinned, index):
    assert report(CASES[index]) == pinned[index]["json"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_koszul_pin.py --write")
    PINNED.write_text(json.dumps(
        [{"case": _case_id(case), "json": report(case)} for case in CASES],
        indent=1) + "\n")
