"""Byte identity of ``catalog.r_family`` curves on general parameter sets.

Each set below has every interior parameter nonzero; together they cover
the pairs (1, 2), (3, 1) and (2, 3), a corner r8 with radicals and an
imaginary part, and parameters that mix several radicals.  The files in
``tests/data/`` hold ``dumps_canonical(curve_to_obj(curve))`` of each
curve, recorded when the family was a hand-expanded coefficient table; the
test rebuilds each curve and compares the bytes.  After a deliberate change
of the family, re-record with

    PYTHONPATH=src python3 tests/test_rfamily_pins.py
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from supermin import catalog
from supermin.field import AlgScalar
from supermin.serialize import curve_to_obj, dumps_canonical

DATA = Path(__file__).resolve().parent / "data"
t, q, i = AlgScalar.term, AlgScalar.rational, AlgScalar.i()

# name: ((k1, k2), (r1, ..., r8))
PINNED = {
    "r_family_1_2": ((1, 2), (q(2), q(1, 3), t(2, 1), q(-1), q(1, 2), t(3, 1), q(5),
                              t(3, 2) - i)),
    "r_family_3_1": ((3, 1), (t(10, 3), q(-2, 5), q(1) + i, t(5, 1), q(-3), q(1, 7),
                              t(2, 1) - t(3, 1), q(-5, 2))),
    "r_family_2_3": ((2, 3), (t(6, Fraction(1, 3)), i, q(-1, 2), t(2, 2), t(15, 1), q(-4),
                              t(1, 0, Fraction(3, 2)), q(1) + t(2, 1))),
}


def pinned_text(name: str) -> str:
    (k1, k2), params = PINNED[name]
    form = catalog.r_family(catalog.SingularityTypeSpec.from_pair(k1, k2),
                            catalog.RFamilyParams(*params))
    return dumps_canonical(curve_to_obj(form.to_curve()))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_r_family_matches_its_pinned_bytes(name):
    assert pinned_text(name) == (DATA / f"{name}.json").read_text()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in PINNED:
        (DATA / f"{name}.json").write_text(pinned_text(name))
    print(f"recorded {len(PINNED)} files in {DATA}", file=sys.stderr)
