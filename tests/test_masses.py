import functools
import math
from fractions import Fraction

import pytest

from dense_reference import dense, dense_eigenvalues
from toda_spectrum import classical, masses, root_systems, spectral, verify
from toda_spectrum.masses import (
    GOLDEN_RATIO,
    NULL_EIGENVALUE_TOL,
    ConsistencyError,
    MassMethod,
    NormalizationInfo,
    Spectrum,
    adjacency_eigen,
    mass_char_poly,
    mass_matrix,
    mass_matrix_embedded,
    mass_ratio_spread,
    perron_components,
    spectrum_method1,
    spectrum_method2,
)
from toda_spectrum.root_systems import AlgebraId, root_system
from toda_spectrum.spectral import eigenvalues_from_bonds, jacobi_eigen
from toda_spectrum.verify import (
    E8_GOLDEN_PAIRS,
    E8_MASS_QUARTICS,
    E8_QUARTIC_LABELS,
    closed_form_mass_scale,
)

ADE = classical.simply_laced_algebras(8)

# heaviest E8 squared mass, frozen from evaluating the closed-form scale
# 2 sqrt(3) sin(6 pi/30)/sin(pi/30)
E8_HEAVIEST_MASS_SQUARE = 19.479362636440847

# E8 Dynkin nodes in ascending order of mass: particle k sits on node E8_NODE_ORDER[k - 1]
E8_NODE_ORDER = (1, 7, 2, 8, 3, 6, 4, 5)


# ---------------------------------------------------------------------------
# exact mass matrix carrier
# ---------------------------------------------------------------------------


def test_e8_mass_charpoly_exact():
    poly = mass_char_poly("E8")
    assert [int(c) for c in poly.coefficients] == [
        518400,
        -1296000,
        1166400,
        -518400,
        127440,
        -18000,
        1440,
        -60,
        1,
    ]


def _classical_cartan_det(family, rank):
    return {"A": rank + 1, "B": 2, "C": 2, "D": 4, "E": 9 - rank, "F": 1, "G": 1}[family]


@pytest.mark.parametrize("name", classical.all_algebras(10))
def test_mass_determinant_closed_form(name):
    # K = diag(marks) + marks marks^T with n_0 = 1, so det K = prod(marks) (1 + sum(marks))
    # = h prod(marks), and det(KG) = h prod(marks) det(G), where G = C diag(symmetrizers)
    rs = root_system(name)
    det_g = _classical_cartan_det(name[0], int(name[1:])) * math.prod(rs.symmetrizers)
    det = rs.coxeter_number * math.prod(rs.marks) * det_g
    assert mass_char_poly(name).coefficients[0] == (-1) ** rs.rank * det


def test_mass_char_poly_cached_per_algebra():
    assert mass_char_poly("a10") is mass_char_poly(AlgebraId("A", 10))


def test_spectrum_both_runs_each_float_solver_once(monkeypatch):
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for name in ("perron_vector", "eigenvalues_from_bonds"):
        monkeypatch.setattr(masses, name, counting(name, getattr(masses, name)))
    masses._perron_components.cache_clear()
    masses._mass_squares.cache_clear()
    spectrum_method1("E8")
    spectrum_method2("E8")
    mass_ratio_spread("E8")
    assert sorted(calls) == ["eigenvalues_from_bonds", "perron_vector"]


def test_e8_mass_trace_is_twice_coxeter():
    assert mass_matrix("E8").trace() == 60


@pytest.mark.parametrize("name", ADE)
def test_ade_mass_trace_is_twice_coxeter(name):
    rs = root_system(name)
    assert mass_matrix(name).trace() == 2 * rs.coxeter_number


@pytest.mark.parametrize("name", classical.all_algebras(8))
def test_mass_matrix_eigenvalues_positive(name):
    eigs = jacobi_eigen(mass_matrix_embedded(name)).eigenvalues
    assert min(eigs) > 0.0


@pytest.mark.parametrize("name", ["A3", "B3", "C4", "D4", "F4", "G2", "E6"])
def test_embedded_matrix_matches_exact_carrier(name):
    # the symmetric embedded matrix and the exact rational carrier must share
    # their spectrum: compare eigenvalues to the exact charpoly's roots by
    # evaluating the polynomial at each eigenvalue
    poly = mass_char_poly(name)
    for eig in jacobi_eigen(mass_matrix_embedded(name)).eigenvalues:
        assert abs(poly.evaluate(eig)) / poly.magnitude_at(eig) <= 1e-12


# ---------------------------------------------------------------------------
# the affine (n+1) x (n+1) mass matrix
# ---------------------------------------------------------------------------

# every algebra of rank <= 14, A-D at ranks 15-31, A64 and D48
MASS_ALGEBRAS = (
    classical.all_algebras(14)
    + [f + str(r) for f in "ABCD" for r in range(15, 32)]
    + ["A64", "D48"]
)


@pytest.mark.parametrize("name", MASS_ALGEBRAS)
def test_mass_squares_agree_with_jacobi_on_the_embedded_matrix(name):
    want = sorted(jacobi_eigen(mass_matrix_embedded(name)).eigenvalues)
    got = masses._mass_squares(AlgebraId.parse(name))
    for x, y in zip(got, want, strict=True):
        assert abs(x - y) <= 1e-13 * want[-1]


@pytest.mark.parametrize("name", classical.all_algebras(14) + ["A31", "B31", "C31", "A64", "D48"])
def test_affine_mass_matrix_has_one_null_vector(name):
    # M (1, sqrt(marks)) = 0, because the affine family weighted by (1, marks)
    # sums to zero; every entry of M is at most 12 in size
    rs = root_system(name)
    m = dense(*masses._affine_bonds(rs))
    null = [1.0] + [math.sqrt(k) for k in rs.marks]
    assert max(abs(x) for row in m for x in row) <= 12.0
    for row in m:
        assert abs(math.fsum(x * y for x, y in zip(row, null))) <= 1e-14
    eigenvalues = dense_eigenvalues(m)
    assert sum(abs(x) <= NULL_EIGENVALUE_TOL * eigenvalues[0] for x in eigenvalues) == 1
    assert sorted(eigenvalues)[1] > 1e-3 * eigenvalues[0]  # the next one is far from rounding


@pytest.mark.parametrize(
    "eigenvalues, message",
    [
        ((4.0, 1.0, 1e-20, -1e-20), "2 eigenvalues at rounding level"),
        ((4.0, 1.0, 0.5, 0.25), "0 eigenvalues at rounding level"),
        ((4.0, 1.0, 0.0, -0.5), "nonpositive eigenvalue"),
    ],
)
def test_mass_squares_reject_a_wrong_null_space(eigenvalues, message, monkeypatch):
    monkeypatch.setattr(masses, "eigenvalues_from_bonds", lambda diagonal, bonds: eigenvalues)
    with pytest.raises(ConsistencyError, match=message):
        masses._mass_squares.__wrapped__(AlgebraId("A", 3))


def _dense_adjacency(rs):
    """The n^2 formula the adjacency bonds replaced: every Gram entry converted."""
    d = [math.sqrt(float(x)) for x in rs.symmetrizers]
    n = rs.rank
    return [
        [0.0 if i == j else -float(rs.gram[i][j]) / (d[i] * d[j]) for j in range(n)]
        for i in range(n)
    ]


@pytest.mark.parametrize("name", MASS_ALGEBRAS)
def test_sparse_adjacency_is_bit_identical_to_dense(name):
    # float == is bit identity here: no entry is NaN, and a missing bond, -0.0
    # in the dense formula, is now 0.0, which compares equal
    rs = root_system(name)
    assert dense(*masses._adjacency_bonds(rs)) == _dense_adjacency(rs)


# every algebra of rank <= 10, and A-D at ranks 19-31 and 64
BOND_LADDER = classical.all_algebras(10) + [
    f + str(r) for f in "ABCD" for r in (*range(19, 32), 64)
]


@pytest.mark.parametrize("name", BOND_LADDER)
def test_bond_list_path_is_bit_identical_to_the_dense_solver(name):
    # float == is bit identity here: no entry or eigenvalue is NaN
    rs = root_system(name)
    for diagonal, off in (masses._affine_bonds(rs), masses._adjacency_bonds(rs)):
        assert all(i < j for i, j, _ in off)
        assert len({(i, j) for i, j, _ in off}) == len(off)
        want = dense_eigenvalues(dense(diagonal, off))
        assert eigenvalues_from_bonds(diagonal, off) == want
        assert eigenvalues_from_bonds(diagonal, off[::-1]) == want


def _off_the_algebra_path(*args):
    raise AssertionError("the embedding is not on the algebra path")


@pytest.fixture
def no_embedding(monkeypatch):
    """Fresh per-algebra caches, and every embedding entry point raising."""
    monkeypatch.setattr(root_systems, "_cholesky", _off_the_algebra_path)
    for module in (root_systems, masses):
        monkeypatch.setattr(module, "embed_roots", _off_the_algebra_path)
    monkeypatch.setattr(masses, "mass_matrix_embedded", _off_the_algebra_path)
    for cached in ("_mass_char_poly", "_perron_components", "_mass_squares"):
        fn = getattr(masses, cached).__wrapped__
        monkeypatch.setattr(masses, cached, functools.lru_cache(maxsize=None)(fn))


@pytest.mark.parametrize("name", ["A1", "A14", "B9", "C10", "D14", "E8", "F4", "G2", "A31", "D31"])
def test_algebra_requests_build_no_embedding(name, no_embedding):
    spectrum_method1(name)
    spectrum_method2(name)
    mass_ratio_spread(name)
    mass_char_poly(name)
    adjacency_eigen(name)


@pytest.fixture
def no_dense_copy(monkeypatch):
    """Fresh per-algebra caches, and the dense solver's symmetric copy raising."""

    def dense_copy(m):
        raise AssertionError("an algebra request made a dense symmetric copy")

    monkeypatch.setattr(spectral, "_symmetric_copy", dense_copy)
    for module, cached in (
        (root_systems, "_root_system"),
        (masses, "_mass_char_poly"),
        (masses, "_perron_components"),
        (masses, "_mass_squares"),
    ):
        fn = getattr(module, cached).__wrapped__
        monkeypatch.setattr(module, cached, functools.lru_cache(maxsize=None)(fn))


@pytest.mark.parametrize("name", ["E8", "A31", "D31"])
def test_algebra_requests_make_no_dense_copy(name, no_dense_copy):
    spectrum_method1(name)
    spectrum_method2(name)
    mass_ratio_spread(name)
    adjacency_eigen(name)


def test_verify_suites_build_no_embedding(no_embedding):
    for suite in verify.SUITES.values():
        suite()


def test_a1_mass_matrix_is_four():
    assert mass_matrix("A1").entries == ((Fraction(4),),)
    spec = spectrum_method2("A1")
    assert abs(spec.masses[0] - 2.0) <= 1e-14


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def test_a1_both_methods_give_mass_two():
    s1 = spectrum_method1("A1")
    s2 = spectrum_method2("A1")
    assert abs(s1.masses[0] - 2.0) <= 1e-12
    assert abs(s2.masses[0] - 2.0) <= 1e-12


def test_a2_masses_equal():
    spec = spectrum_method2("A2")
    assert abs(spec.masses[0] - spec.masses[1]) <= 1e-12


def test_methods_tagged():
    assert spectrum_method1("A2").method is MassMethod.PERRON_FROBENIUS
    assert spectrum_method2("A2").method is MassMethod.MASS_MATRIX


@pytest.mark.parametrize(
    "mass, square",
    [
        (math.nan, math.nan),
        (math.inf, math.inf),
        (-math.inf, math.inf),
        (0.0, 0.0),
        (1.0, math.nan),
        (1.0, math.inf),
        (1.0, 2.0),
    ],
    ids=str,
)
def test_spectrum_rejects_a_mass_that_is_not_finite_and_positive(mass, square):
    info = NormalizationInfo("absolute", "squared masses are mass-matrix eigenvalues", 1.0)
    assert Spectrum(AlgebraId("A", 1), (2.0,), (4.0,), MassMethod.MASS_MATRIX, info)
    with pytest.raises(ValueError):
        Spectrum(AlgebraId("A", 1), (mass,), (square,), MassMethod.MASS_MATRIX, info)


def test_spectrum_rejects_masses_out_of_ascending_order():
    info = NormalizationInfo("absolute", "squared masses are mass-matrix eigenvalues", 1.0)
    a2 = AlgebraId("A", 2)
    assert Spectrum(a2, (1.0, 1.0), (1.0, 1.0), MassMethod.MASS_MATRIX, info)
    assert Spectrum(a2, (1.0, 2.0), (1.0, 4.0), MassMethod.MASS_MATRIX, info)
    with pytest.raises(ValueError, match="ascending"):
        Spectrum(a2, (2.0, 1.0), (4.0, 1.0), MassMethod.MASS_MATRIX, info)


@pytest.mark.parametrize(
    "name", classical.all_algebras(10) + [f"{f}{r}" for r in (19, 31) for f in "ABCD"]
)
def test_both_routes_list_masses_in_ascending_order(name):
    s1, s2 = spectrum_method1(name), spectrum_method2(name)
    for spec in (s1, s2):
        assert all(a <= b for a, b in zip(spec.masses, spec.masses[1:]))
        for kind in ("absolute", "max", "first", "unit"):
            spec.rescaled(kind)  # a rescaled copy passes the same ordering check
    if classical.simply_laced(name[0]):
        for a, b in zip(s1.masses, s2.masses):
            assert abs(a - b) <= verify.CONSISTENCY_TOL * b


def _perron_off_route_two(*args):
    raise AssertionError("route 2 read a Perron vector")


@pytest.mark.parametrize("name", classical.all_algebras(8))
def test_route_two_reads_no_perron_vector(name, monkeypatch):
    monkeypatch.setattr(masses, "perron_components", _perron_off_route_two)
    monkeypatch.setattr(masses, "perron_vector", _perron_off_route_two)
    fresh = functools.lru_cache(maxsize=None)(masses._mass_squares.__wrapped__)
    monkeypatch.setattr(masses, "_mass_squares", fresh)
    spec = spectrum_method2(name)
    assert spec.mass_squares == fresh(AlgebraId.parse(name))


def test_e8_heaviest_mass_square():
    s2 = spectrum_method2("E8")
    assert s2.mass_squares[-1] == max(s2.mass_squares)
    assert abs(s2.mass_squares[-1] - E8_HEAVIEST_MASS_SQUARE) <= 1e-9
    # node 5 carries the heaviest particle
    u = perron_components("E8")
    assert max(u) == u[4]
    assert abs(masses._mass_scale(verify.E8, u) * u[4] ** 2 - E8_HEAVIEST_MASS_SQUARE) <= 1e-9


def test_e8_spectrum_sum_and_product_match_exact_coefficients():
    poly = mass_char_poly("E8")
    assert poly.coefficients[7] == -60  # sum of the squared masses, exactly
    assert poly.coefficients[0] == 518400  # product, exactly
    squares = spectrum_method2("E8").mass_squares
    assert abs(sum(squares) - 60.0) <= 1e-9
    product = 1.0
    for s in squares:
        product *= s
    assert abs(product - 518400.0) / 518400.0 <= 1e-9


def test_e8_method1_matches_method2_node_by_node():
    s1 = spectrum_method1("E8")
    s2 = spectrum_method2("E8")
    for a, b in zip(s1.mass_squares, s2.mass_squares):
        assert abs(a - b) / b <= 1e-9


def test_e8_mass_scale_closed_form():
    assert abs(closed_form_mass_scale() - E8_HEAVIEST_MASS_SQUARE) <= 1e-12


def test_rescaling_changes_only_global_factor():
    base = spectrum_method1("E8")
    for kind in ("max", "first", "unit", "absolute"):
        scaled = base.rescaled(kind)
        for i in range(1, 8):
            want = base.masses[i] / base.masses[0]
            got = scaled.masses[i] / scaled.masses[0]
            assert abs(got - want) <= 1e-12 * want
    assert abs(max(base.rescaled("max").masses) - 1.0) <= 1e-15
    h = root_system("E8").coxeter_number
    assert abs(min(base.rescaled("first").masses) - 2 * math.sin(math.pi / h)) <= 1e-12


def test_rescaled_rejects_unknown_kind():
    with pytest.raises(ValueError):
        spectrum_method1("A2").rescaled("nope")


# ---------------------------------------------------------------------------
# cross-method consistency
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ADE)
def test_consistency_simply_laced(name):
    assert mass_ratio_spread(name) <= 1e-9


def test_consistency_a1_zero():
    assert mass_ratio_spread("A1") <= 1e-13


def test_consistency_d4():
    assert mass_ratio_spread("D4") <= 1e-9


# The non-simply-laced spreads are measured, and `verify` judges none of them:
# B2, C2, F4 and G2 agree at rounding level, B_n and C_n from rank 3 do not
# (2.0 at rank 3, falling to about 0.30 at rank 16).
@pytest.mark.parametrize("name", ["B2", "C2", "F4", "G2"])
def test_consistency_non_simply_laced_agreeing(name):
    assert mass_ratio_spread(name) <= verify.CONSISTENCY_TOL


@pytest.mark.parametrize("name", [f"{f}{r}" for f in "BC" for r in range(3, 17)])
def test_consistency_non_simply_laced_disagreeing(name):
    assert mass_ratio_spread(name) > 0.1


# The reason for the spreads above. The Gram form G = C diag(d), d the
# symmetrizers, is symmetric, so if u is the left Perron vector of 2I - C
# (route 1's input), the products d_i u_i form the left Perron vector of
# 2I - C^T, the adjacency matrix of the Langlands dual algebra (B_n <-> C_n;
# F4 and G2 to themselves, nodes reversed). Route 2's squared masses are
# those products squared, for every family: route 1 of X is route 2 of X^v.
@pytest.mark.parametrize("name", classical.all_algebras(8) + ["B16", "C16"])
def test_mass_squares_are_the_symmetrizer_weighted_perron_components(name):
    aid = AlgebraId.of(name)
    d = root_system(aid).symmetrizers
    weighted = sorted(float(di) * ui for di, ui in zip(d, perron_components(aid)))
    ratios = [m / (x * x) for m, x in zip(masses._mass_squares(aid), weighted)]
    assert max(ratios) / min(ratios) - 1.0 <= verify.CONSISTENCY_TOL


def test_consistency_error_is_consistency_specific():
    assert issubclass(ConsistencyError, RuntimeError)


# ---------------------------------------------------------------------------
# E8 identities
# ---------------------------------------------------------------------------


def test_golden_ratio_pairs():
    u = perron_components("E8")
    for heavy, light in E8_GOLDEN_PAIRS:
        ratio = u[heavy - 1] / u[light - 1]
        assert abs(ratio - GOLDEN_RATIO) / GOLDEN_RATIO <= 1e-10
    assert abs(GOLDEN_RATIO - (1 + math.sqrt(5)) / 2) == 0.0


def test_cross_product_identity_value():
    # the common value of u2*u5*u7*u8 and u1*u3*u4*u6; multiplying the
    # four-decimal reference row gives 0.07073 (rounding noise included)
    u = perron_components("E8")
    prod_a = u[1] * u[4] * u[6] * u[7]
    prod_b = u[0] * u[2] * u[3] * u[5]
    assert abs(prod_a - prod_b) / prod_b <= 1e-10
    assert abs(prod_a - 0.0707158494968715) <= 1e-12
    assert abs(prod_a - 0.07073) <= 2e-5


def test_scale_constant_term_with_720():
    u = perron_components("E8")
    scale = closed_form_mass_scale()
    prod = u[1] * u[4] * u[6] * u[7]
    assert abs(scale**4 * prod**2 - 720.0) / 720.0 <= 1e-8


def test_quartic_root_partition_matches_method1_labels():
    # every particle's squared mass is a root of its designated quartic, and
    # the swapped designation fails decisively; route 1 lists the particles
    # in ascending order, so node j becomes particle E8_NODE_ORDER.index(j) + 1
    u = perron_components("E8")
    assert tuple(sorted(range(1, 9), key=lambda j: u[j - 1])) == E8_NODE_ORDER
    ascending_labels = tuple(
        tuple(sorted(E8_NODE_ORDER.index(j) + 1 for j in labels)) for labels in E8_QUARTIC_LABELS
    )
    assert ascending_labels == ((2, 3, 4, 8), (1, 5, 6, 7))
    s1 = spectrum_method1("E8")
    for quartic, labels in zip(E8_MASS_QUARTICS, ascending_labels):
        for label in labels:
            msq = s1.mass_squares[label - 1]
            assert abs(quartic.evaluate(msq)) / quartic.magnitude_at(msq) <= 1e-6
    swapped_residual = min(
        abs(quartic.evaluate(s1.mass_squares[label - 1]))
        for quartic, labels in zip(E8_MASS_QUARTICS, reversed(ascending_labels))
        for label in labels
    )
    assert swapped_residual > 100.0


def test_perron_times_scale_squares_are_roots_of_their_quartic():
    # the squared mass of particle j is the determinant-fitted scale times u_j^2;
    # it is a root of the quartic E8_QUARTIC_LABELS assigns it, and of neither
    # quartic under the swapped assignment
    u = perron_components("E8")
    scale = masses._mass_scale(verify.E8, u)

    def residuals(assignment):
        return [
            abs(quartic.evaluate(scale * u[label - 1] ** 2))
            / quartic.magnitude_at(scale * u[label - 1] ** 2)
            for quartic, labels in zip(E8_MASS_QUARTICS, assignment)
            for label in labels
        ]

    assert max(residuals(E8_QUARTIC_LABELS)) <= 1e-10
    assert min(residuals(tuple(reversed(E8_QUARTIC_LABELS)))) > 1e-3


@pytest.mark.parametrize("name", ["A3", "D4", "E6", "E7"])
def test_mass_ratio_spread_small_everywhere_simply_laced(name):
    assert mass_ratio_spread(name) <= 1e-11
