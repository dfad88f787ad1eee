"""The verifier's window sampler and its check loop.

Every windowed identity check draws its cases one way and runs them one
way.

- **One sampling policy** (``sample_window``): the cases are tuples with
  one entry from each of a list of parts, usually windows of integer
  coordinates (``coordinate_window``).  A product within the budget is
  checked whole; a larger one on its sparse cases, those with few
  nonzero generator coordinates (``nonzero``), topped up with seeded
  random draws.
- **One first-failure loop** (``check_cases``): a predicate runs over the
  cases up to the first failure, and the report gives the status, the
  number of cases run and the failing case.  An empty case list is a
  FAIL, since nothing was checked.

The module imports nothing from the rest of the package, so every layer
can run its checks on it.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import prod

__all__ = ["coordinate_window", "nonzero", "sample_window", "check_cases"]


def coordinate_window(rank: int, radius: int):
    """All integer coordinate tuples with entries in [-radius, radius]."""
    return list(iproduct(range(-radius, radius + 1), repeat=rank))


def nonzero(case) -> int:
    """Number of nonzero integer coordinates in a case, counted through
    nested tuples; entries that are not integers (central scalars) count 0."""
    if isinstance(case, tuple):
        return sum(map(nonzero, case))
    return int(isinstance(case, int) and case != 0)


def sample_window(parts, budget: int, sparse: int, extra: int, rng, per_part: bool = False):
    """The cases of a windowed identity check: tuples with one entry from
    each of ``parts`` (lists).

    This is the one sampling policy of the verifier.  When the full
    product of the parts has at most ``budget`` cases, every case is
    returned, in product order.  Otherwise the check runs on the sparse
    cases, those with at most ``sparse`` nonzero generator coordinates in
    total (or in each entry, when ``per_part``), in product order, topped
    up with ``extra`` draws of ``tuple(rng.choice(p) for p in parts)``.
    The identities are polynomial of low degree in the coordinates, so the
    sparse cases already pin their affine and bilinear coefficients; the
    draws reach unrestricted cases.  ``rng`` is a ``random.Random`` owned
    by the caller, so that its seed and later draws stay with the caller.
    """
    if prod(map(len, parts)) <= budget:
        return list(iproduct(*parts))
    kept = [[(c, n) for c in part if (n := nonzero(c)) <= sparse] for part in parts]
    cases = [
        tuple(c for c, _ in combo)
        for combo in iproduct(*kept)
        if per_part or sum(n for _, n in combo) <= sparse
    ]
    return cases + [tuple(rng.choice(p) for p in parts) for _ in range(extra)]


def check_cases(cases, holds, count: str = "checked") -> dict:
    """Run ``holds`` over ``cases`` up to the first failure.

    Returns ``{"status", count, "failing"}``: PASS with the count equal to
    ``len(cases)``, or FAIL with the number of cases run and the first
    failing case.  An empty case list is a FAIL: nothing was checked.
    """
    n = 0
    for case in cases:
        n += 1
        if not holds(case):
            return {"status": "FAIL", count: n, "failing": case}
    return {"status": "PASS" if n else "FAIL", count: n, "failing": None}
