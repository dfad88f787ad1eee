import os

import pytest
from hypothesis import given, settings, strategies as st

from nctorus.coeff import GRat, Q
from nctorus.linalg import rat_solve
from nctorus.sampling import gaussian_product_torus
from nctorus.torus import (
    TorusData,
    TorusError,
    bfield,
    dual_lattice,
    pairing,
    validate_torus,
)


def G(re, im=0):
    return GRat.of(re, im)


GAUSS1 = TorusData(1, ((G(1),), (G(0, 1),)), ((G(0),),), 4)

PI2 = ((G(0), G(1)), (G(-1), G(0)))
GAUSS2 = gaussian_product_torus(2, PI2)


def test_validate_examples():
    rep = validate_torus(GAUSS1)
    assert rep["poisson_rank"] == 0
    rep2 = validate_torus(GAUSS2)
    assert rep2["poisson_rank"] == 2
    with pytest.raises(TorusError):
        validate_torus(TorusData(1, ((G(1),), (G(2),)), ((G(0),),), 4))
    with pytest.raises(TorusError):
        TorusData(2, GAUSS2.lattice, ((G(0), G(1)), (G(1), G(0))), 4)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TorusData(0, (), (), 4), "dimension must be positive"),
        (lambda: TorusData(1, ((G(1),),), ((G(0),),), 4), "lattice must consist of 2g vectors in C^g"),
        (lambda: TorusData(1, GAUSS1.lattice, (), 4), "poisson matrix must be g x g"),
        (lambda: dual_lattice(TorusData(1, ((G(1),), (G(2),)), ((G(0),),), 4)), "degenerate lattice"),
    ],
)
def test_ill_formed_torus_data_is_refused(build, message):
    with pytest.raises(TorusError) as exc:
        build()
    assert str(exc.value) == message


def test_pairing_conjugate_linearity():
    xi = (G(Q(2, 3), Q(1, 5)),)
    assert pairing(xi, (G(0),)) == G(0)
    v = (G(1, 1),)
    iv = (G(-1, 1),)  # i * (1+i)
    lhs = pairing(xi, iv)
    rhs = GRat.of(0, -1) * pairing(xi, v)
    assert lhs == rhs
    a = G(Q(1, 2), Q(1, 3))
    assert pairing((a,), (G(1, 1),)) == a * G(1, -1)


def test_dual_lattice_gaussian():
    basis = dual_lattice(GAUSS1)
    # integrally dual: Im<xi_k, lam_j> = delta
    for k, xi in enumerate(basis):
        for j, lam in enumerate(GAUSS1.lattice):
            assert pairing(xi, lam).im == (1 if j == k else 0)
    # the dual of the Gaussian lattice has the same Z-span {1, i}
    span = {(v[0].re, v[0].im) for v in basis}
    assert span <= {(Q(0), Q(1)), (Q(-1), Q(0)), (Q(1), Q(0)), (Q(0), Q(-1))}


def test_dual_lattice_scaling():
    scaled = TorusData(
        1, tuple(tuple(e.scale(Q(2)) for e in v) for v in GAUSS1.lattice), ((G(0),),), 4
    )
    b1 = dual_lattice(GAUSS1)
    b2 = dual_lattice(scaled)
    assert b2 == tuple(
        tuple(e.scale(Q(1, 2)) for e in v) for v in b1
    )


def test_dual_lattice_blockwise():
    b1 = dual_lattice(GAUSS1)
    b2 = dual_lattice(GAUSS2)
    # product lattice: the dual is the product of the g=1 answers blockwise
    for k in range(2):
        assert b2[k][0] == b1[k][0]
        assert b2[k][1] == G(0)
        assert b2[2 + k][1] == b1[k][0]
        assert b2[2 + k][0] == G(0)


def test_double_dual_preserves_span():
    # dual of the dual (through Im<.,.>) returns the original Z-span
    basis = dual_lattice(GAUSS2)
    ddual = TorusData(2, basis, GAUSS2.poisson, 4)
    back = dual_lattice(ddual)
    # every lattice generator solves integrally over the double-dual basis
    flat = [
        [v[i].re for v in back] + [v[i].im for v in back]
        for i in range(2)
    ]
    m = []
    for i in range(2):
        m.append([v[i].re for v in back])
        m.append([v[i].im for v in back])
    mat = [[m[r][c] for c in range(4)] for r in range(4)]
    for lam in GAUSS2.lattice:
        rhs = [[lam[0].re], [lam[0].im], [lam[1].re], [lam[1].im]]
        sol = rat_solve(mat, rhs)
        assert sol is not None
        assert all(x[0].denominator == 1 for x in sol)


def test_bfield_examples():
    for torus in (GAUSS1, gaussian_product_torus(2)):
        assert all(not e for row in bfield(torus).matrix for e in row)
    B = bfield(GAUSS2)
    assert B.value((G(1), G(0)), (G(0), G(1))) == G(1)
    n = 4
    for i in range(n):
        for j in range(n):
            assert B.matrix[i][j] == -B.matrix[j][i]
    # biadditivity on integer combinations of the generators
    c1, c2, c3 = (1, 0, -1, 2), (0, 1, 1, 0), (2, -1, 0, 1)
    lhs = B.on_coords(tuple(a + b for a, b in zip(c1, c2)), c3)
    assert lhs == B.on_coords(c1, c3) + B.on_coords(c2, c3)


def test_every_bfield_of_a_torus_shares_one_basis():
    # each call builds its own form and memos around the one memoized basis,
    # which an equal torus built apart reads too
    first, second = bfield(GAUSS2), bfield(gaussian_product_torus(2, PI2))
    assert first is not second
    assert first.basis is second.basis is dual_lattice(GAUSS2)


def test_a_g1_run_solves_the_dual_lattice_once(monkeypatch):
    # parse_config's validation, suite_torus, every bfield of the run and
    # fm_hh2 read one elimination of the pairing system, which gives the
    # determinant and the dual basis
    from nctorus import cli, linalg, torus

    with open(os.path.join(os.path.dirname(__file__), "..", "src", "nctorus", "fixtures", "g1.json")) as fh:
        text = fh.read()
    eliminated = []
    gauss_jordan = linalg._gauss_jordan

    def recording(a, ncols):
        eliminated.append([row[:ncols] for row in a])
        return gauss_jordan(a, ncols)

    monkeypatch.setattr(linalg, "_gauss_jordan", recording)
    torus._pairing_solve.cache_clear()
    dual_lattice.cache_clear()
    cfg = cli.parse_config(text)
    cli.run(cfg)
    assert eliminated.count(cfg.torus.pairing_rows()) == 1


# a g = 2 lattice that is not a product of curves
NON_PRODUCT = ((G(1), G(0)), (G(0, 1), G(0)), (G(Q(1, 2)), G(1)), (G(0, Q(1, 3)), G(Q(1, 2), 1)))

_rationals = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _bforms_with_coords(draw):
    """B of a random antisymmetric Poisson matrix, on a product torus or
    on ``NON_PRODUCT``, with two integer coordinate vectors."""
    g = draw(st.integers(1, 3))
    entries = {(i, j): G(draw(_rationals), draw(_rationals)) for i in range(g) for j in range(i + 1, g)}
    poisson = tuple(
        tuple(entries[i, j] if i < j else -entries[j, i] if j < i else G(0) for j in range(g)) for i in range(g)
    )
    if g == 2 and draw(st.booleans()):
        torus = TorusData(2, NON_PRODUCT, poisson, 4)
    else:
        torus = gaussian_product_torus(g, poisson)
    coords = st.tuples(*[st.integers(-3, 3)] * (2 * g))
    return bfield(torus), draw(coords), draw(coords)


@settings(max_examples=150, deadline=None)
@given(_bforms_with_coords())
def test_on_coords_is_the_double_sum_over_the_matrix(case):
    B, c1, c2 = case
    cells = [(a * b, B.matrix[k][m]) for k, a in enumerate(c1) for m, b in enumerate(c2)]
    want = GRat(sum((w * x.re for w, x in cells), Q(0)), sum((w * x.im for w, x in cells), Q(0)))
    built = [0]
    new = Q.__new__

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Q, "__new__", staticmethod(counting))
        got = B.on_coords(c1, c2)
    assert got == want
    assert built[0] == 0  # integer weights over the canonical triples
