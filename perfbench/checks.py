"""Independent checks used by the workloads.

Nothing here calls the arithmetic it checks: polynomials are read through
their public coefficient tuples and evaluated with plain Python integers.
"""

from __future__ import annotations

import json


def horner(coeffs, x: int) -> int:
    """Value at the integer x of the polynomial with these coefficients
    (little-endian)."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _max_degree(matrix) -> int:
    return max((len(e.coeffs) - 1 for row in matrix.rows for e in row),
               default=-1)


def product_vanishes(left, right) -> bool:
    """Whether left * right == 0 for matrices over Z[a].

    Every entry of the product is a polynomial of degree at most
    deg(left) + deg(right).  The product is formed with plain integers at
    that many plus one distinct integer values of a; a polynomial of degree
    at most D that vanishes at D + 1 points is zero, so the test is exact.
    """
    if left.n != right.m:
        return False
    degree = _max_degree(left) + _max_degree(right)
    if degree < 0:
        return True
    lrows = [[(t, e.coeffs) for t, e in enumerate(row) if e.coeffs]
             for row in left.rows]
    rrows = [[(j, e.coeffs) for j, e in enumerate(row) if e.coeffs]
             for row in right.rows]
    half = degree // 2
    for x in range(-half, degree - half + 1):
        rvals = [[(j, horner(c, x)) for j, c in row] for row in rrows]
        for row in lrows:
            acc = {}
            for t, c in row:
                v = horner(c, x)
                for j, w in rvals[t]:
                    acc[j] = acc.get(j, 0) + v * w
            if any(acc.values()):
                return False
    return True


def keys_sorted(value) -> bool:
    """Whether every JSON object inside value lists its keys in sorted
    order."""
    if isinstance(value, dict):
        keys = list(value)
        return keys == sorted(keys) and all(keys_sorted(v)
                                            for v in value.values())
    if isinstance(value, list):
        return all(keys_sorted(v) for v in value)
    return True


def parse_sorted_json(text: str):
    """The parsed document, or None if text is not JSON with sorted keys."""
    try:
        value = json.loads(text)
    except ValueError:
        return None
    return value if keys_sorted(value) else None
