import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_reference import column_perron, dense, dense_eigenvalues, from_rows, row_order_sum
from toda_spectrum import classical, masses, spectral
from toda_spectrum.exact_poly import char_poly_exact, refine_real_roots
from toda_spectrum.masses import adjacency_eigen, mass_matrix_embedded, perron_components
from toda_spectrum.root_systems import AlgebraId, cartan_matrix, dynkin_adjacency, root_system
from toda_spectrum.spectral import (
    POWER_DELTA_TOL,
    PerronVector,
    jacobi_eigen,
    perron_vector,
    recover_exponents,
)

ALL_ALGEBRAS = classical.all_algebras(8)


# ---------------------------------------------------------------------------
# jacobi eigensolver
# ---------------------------------------------------------------------------


def test_jacobi_identity():
    dec = jacobi_eigen([[1.0, 0.0], [0.0, 1.0]])
    assert dec.eigenvalues == (1.0, 1.0)


def test_jacobi_diagonal():
    dec = jacobi_eigen([[3.0, 0.0], [0.0, 1.0]])
    assert dec.eigenvalues == (3.0, 1.0)


def test_jacobi_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        jacobi_eigen([[0.0, 1.0], [0.5, 0.0]])


def test_symmetric_solvers_take_entries_near_the_float_maximum():
    # an equal pair is kept as it is, and Jacobi halves before it subtracts:
    # 1e308 + 1e308 and 2 * 1e308 would both overflow
    m = [[1e308, 1e308], [1e308, -1e308]]
    want = math.sqrt(2.0) * 1e308
    for got in (dense_eigenvalues(m), jacobi_eigen(m).eigenvalues):
        assert got == pytest.approx((want, -want), rel=1e-15)


@st.composite
def symmetric_matrices(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    vals = st.floats(min_value=-10, max_value=10, allow_nan=False)
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(vals)
    return m


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices())
def test_jacobi_reconstruction_and_orthogonality(m):
    n = len(m)
    dec = jacobi_eigen(m)
    assert list(dec.eigenvalues) == sorted(dec.eigenvalues, reverse=True)
    for k in range(n):
        vec = dec.eigenvector(k)
        lam = dec.eigenvalues[k]
        for i in range(n):
            mv = sum(m[i][j] * vec[j] for j in range(n))
            assert abs(mv - lam * vec[i]) <= 1e-10 * max(1.0, abs(lam))
    for a in range(n):
        for b in range(n):
            dot = sum(dec.eigenvector(a)[i] * dec.eigenvector(b)[i] for i in range(n))
            assert abs(dot - (1.0 if a == b else 0.0)) <= 1e-10


def test_jacobi_e8_adjacency_eigenvalues():
    a = [[float(v) for v in row] for row in dynkin_adjacency(cartan_matrix(AlgebraId("E", 8)))]
    eigs = jacobi_eigen(a).eigenvalues
    exponents = (1, 7, 11, 13, 17, 19, 23, 29)
    for x, e in zip(eigs, exponents):
        assert abs(x - 2.0 * math.cos(e * math.pi / 30)) <= 1e-12


def test_e8_eigenvalue_pairing():
    a = [[float(v) for v in row] for row in dynkin_adjacency(cartan_matrix(AlgebraId("E", 8)))]
    eigs = jacobi_eigen(a).eigenvalues
    for j in range(8):
        assert abs(eigs[7 - j] + eigs[j]) <= 1e-10


# ---------------------------------------------------------------------------
# eigenvalue-only solver: Householder tridiagonalisation plus implicit QL
# ---------------------------------------------------------------------------

# every algebra of rank <= 14, A-D at ranks 15-31, A64 and D48
SOLVER_ALGEBRAS = (
    classical.all_algebras(14)
    + [f + str(r) for f in "ABCD" for r in range(15, 32)]
    + ["A64", "D48"]
)


@pytest.mark.parametrize("name", SOLVER_ALGEBRAS)
def test_symmetric_eigenvalues_agree_with_jacobi_on_algebra_matrices(name):
    for m in (mass_matrix_embedded(name), dense(*masses._adjacency_bonds(root_system(name)))):
        got = dense_eigenvalues(m)
        want = jacobi_eigen(m).eigenvalues
        scale = max(map(abs, want))
        for x, y in zip(got, want, strict=True):
            assert abs(x - y) <= 1e-13 * scale


@pytest.mark.parametrize("family", "ABCDEFG")
def test_adjacency_eigenvalues_are_closed_form(family):
    # descending eigenvalues against the exponents m ascending, every rank to 64
    lowest = {"A": 1, "B": 2, "C": 2, "D": 3}
    ranks = {"E": (6, 7, 8), "F": (4,), "G": (2,)}.get(family) or range(lowest[family], 65)
    for n in ranks:
        name = f"{family}{n}"
        h = root_system(name).coxeter_number
        got = adjacency_eigen(name).eigenvalues
        for m, x in zip(classical.exponents(family, n), got, strict=True):
            assert abs(x - 2.0 * math.cos(m * math.pi / h)) <= 1e-14, (name, m)


# sparse graphs beyond the Dynkin diagrams, for the band reduction:
# name -> (node count, edges)
BAND_GRAPHS = {
    "cycle-7": (7, [(i, (i + 1) % 7) for i in range(7)]),
    "cycle-24": (24, [(i, (i + 1) % 24) for i in range(24)]),
    "forked-path-14": (
        14,
        [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, 11)] + [(11, 12), (11, 13)],
    ),
    "d4-star": (5, [(0, j) for j in range(1, 5)]),
    "two-cycles": (
        11,
        [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 6) for i in range(6)],
    ),
    "ladder-16": (16, [(i, i + 1) for i in range(0, 15, 2)] + [(i, i + 2) for i in range(14)]),
    # node 0 hangs off the middle of a 2 x 12 ladder: the breadth-first order
    # starts there, and the band is 5 wide
    "ladder-with-tail": (
        25,
        [(i, i + 1) for i in range(1, 24, 2)] + [(i, i + 2) for i in range(1, 23)] + [(0, 13)],
    ),
}


def _band_bonds(name, seed=0):
    """Diagonal and bonds on the graph, weights multiples of 1/16 in [-4, 4]."""
    n, edges = BAND_GRAPHS[name]
    rng = random.Random(f"{name}-{seed}")
    diagonal = [rng.randint(-64, 64) / 16 for _ in range(n)]
    bonds = [(*sorted(e), rng.choice([-1, 1]) * rng.randint(1, 64) / 16) for e in edges]
    return diagonal, bonds


def _band_matrix(name, seed=0):
    """The dense view of :func:`_band_bonds`."""
    return dense(*_band_bonds(name, seed))


def _assert_agree(got, want, tol=0.0):
    scale = max(map(abs, want))
    for x, y in zip(got, want, strict=True):
        assert abs(x - y) <= 1e-13 * scale + tol


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", BAND_GRAPHS)
def test_symmetric_eigenvalues_agree_with_jacobi_on_band_matrices(name, seed):
    m = _band_matrix(name, seed)
    want = jacobi_eigen(m).eigenvalues
    _assert_agree(dense_eigenvalues(m), want)
    # huge entries: 2^1000 times the matrix, exactly
    huge = [[math.ldexp(x, 1000) for x in row] for row in m]
    _assert_agree(dense_eigenvalues(huge), [math.ldexp(x, 1000) for x in want])
    # subnormal throughout: 2^-1050 times the matrix, still exact; the results
    # are rounded to the subnormal grid, so allow one step of it
    tiny = [[math.ldexp(x, -1050) for x in row] for row in m]
    assert all(abs(x) < 2.0**-1022 for row in tiny for x in row)
    _assert_agree(dense_eigenvalues(tiny), [math.ldexp(x, -1050) for x in want], 2.0**-1074)
    # subnormal bonds among normal ones: each rotation they start is scaled first
    mixed = [row[:] for row in m]
    for k, (i, j) in enumerate(BAND_GRAPHS[name][1][::2]):
        mixed[i][j] = mixed[j][i] = (k + 1) * 5e-324
    _assert_agree(dense_eigenvalues(mixed), jacobi_eigen(mixed).eigenvalues)


def _ordered_bandwidth(m):
    adj = [[j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(m)]
    order = spectral._reversed_breadth_first(adj)
    assert sorted(order) == list(range(len(m)))
    at = {node: k for k, node in enumerate(order)}
    return max(
        (abs(at[i] - at[j]) for i, row in enumerate(m) for j, x in enumerate(row) if x),
        default=0,
    )


def test_reversed_breadth_first_bandwidth_on_every_diagram_to_rank_64():
    lowest = {"A": 1, "B": 2, "C": 2, "D": 3}
    names = [f + str(r) for f, lo in lowest.items() for r in range(lo, 65)]
    names += ["E6", "E7", "E8", "F4", "G2"]
    for name in names:
        rs = root_system(name)
        plain = _ordered_bandwidth(dense(*masses._adjacency_bonds(rs)))
        affine = _ordered_bandwidth(dense(*masses._affine_bonds(rs)))
        assert plain <= 2, name
        assert affine <= (3 if name == "D4" else 2), name


@st.composite
def reflected_diagonals(draw, max_n=6):
    """(H diag(lam) H, lam) for a Householder reflection H, with repeated eigenvalues."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    lam = draw(st.lists(st.sampled_from([-2.0, 0.0, 1.0, 3.0]), min_size=n, max_size=n))
    u = draw(st.lists(st.floats(min_value=-1, max_value=1), min_size=n, max_size=n))
    uu = sum(x * x for x in u)
    if uu < 1e-3:
        u, uu = [1.0] + [0.0] * (n - 1), 1.0
    h = [[float(i == j) - 2.0 * u[i] * u[j] / uu for j in range(n)] for i in range(n)]
    m = [[sum(h[i][k] * lam[k] * h[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            m[i][j] = m[j][i]
    return m, sorted(lam, reverse=True)


@st.composite
def diagonal_matrices(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    vals = st.floats(min_value=-10, max_value=10, allow_nan=False)
    return [[draw(vals) if i == j else 0.0 for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        symmetric_matrices(),
        diagonal_matrices(),
        st.integers(min_value=1, max_value=6).map(lambda n: [[0.0] * n for _ in range(n)]),
        reflected_diagonals().map(lambda pair: pair[0]),
    )
)
def test_symmetric_eigenvalues_agree_with_jacobi_on_random_matrices(m):
    # Jacobi stops on an absolute off-diagonal threshold, hence the floor of 1
    got = dense_eigenvalues(m)
    want = jacobi_eigen(m).eigenvalues
    assert list(got) == sorted(got, reverse=True)
    scale = max(1.0, max(map(abs, want)))
    for x, y in zip(got, want):
        assert abs(x - y) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(reflected_diagonals())
def test_symmetric_eigenvalues_resolve_repeated_eigenvalues(pair):
    m, lam = pair
    for x, y in zip(dense_eigenvalues(m), lam):
        assert abs(x - y) <= 1e-12


def test_symmetric_eigenvalues_small_cases():
    eigenvalues_from_bonds = spectral.eigenvalues_from_bonds
    assert eigenvalues_from_bonds([], []) == ()
    assert eigenvalues_from_bonds([-2.5], []) == (-2.5,)
    assert eigenvalues_from_bonds([0.0, 0.0], []) == (0.0, 0.0)
    assert eigenvalues_from_bonds([1.0, 3.0, 2.0], []) == (3.0, 2.0, 1.0)
    # entries far below the largest one, and a matrix that is subnormal throughout
    big, small = eigenvalues_from_bonds([10.0, 1e-310], [(0, 1, 5e-324)])
    assert big == 10.0 and abs(small - 1e-310) <= 1e-320
    assert eigenvalues_from_bonds([0.0, 0.0], [(0, 1, 5e-324)]) == (5e-324, -5e-324)


@pytest.mark.parametrize(
    "bad",
    [
        [[0.0, 1.0], [0.5, 0.0]],
        [[1.0, 2.0]],
        [[1.0, 2.0], [2.0]],
        [[0.0, math.inf], [math.inf, 0.0]],
        [[1.0, 2.0], [math.nan, 1.0]],
        [[math.nan]],
        pytest.param([[0, 10**400], [10**400, 0]], id="int 10**400"),
    ],
    ids=str,
)
def test_symmetric_eigenvalues_reject_asymmetric_and_non_square(bad):
    # both go through the symmetric copy: the reference wrapper, and Jacobi in the library
    for solve in (dense_eigenvalues, jacobi_eigen):
        with pytest.raises(ValueError):
            solve(bad)


@pytest.mark.parametrize("name", BAND_GRAPHS)
def test_eigenvalues_from_bonds_do_not_depend_on_the_bond_order(name):
    # the neighbour lists are sorted, so every bond order gives one numbering
    m = _band_matrix(name)
    n = len(m)
    bonds = [(i, j, m[i][j]) for i in range(n) for j in range(i + 1, n) if m[i][j]]
    want = dense_eigenvalues(m)
    for order in (bonds, bonds[::-1], sorted(bonds, key=lambda bond: bond[1])):
        assert spectral.eigenvalues_from_bonds([m[i][i] for i in range(n)], order) == want


@pytest.mark.parametrize(
    "bonds",
    [
        [(1, 0, 1.0)],
        [(0, 2, 1.0)],
        [(-1, 1, 1.0)],
        [(0, 1, 1.0), (0, 1, 2.0)],
        [(0, 1, math.inf)],
        [(0, 1, -math.inf)],
        [(0, 1, math.nan)],
        pytest.param([(0, 1, 10**400)], id="int 10**400"),
    ],
    ids=str,
)
def test_eigenvalues_from_bonds_reject_a_bad_bond_list(bonds):
    with pytest.raises(ValueError):
        spectral.eigenvalues_from_bonds([1.0, 2.0], bonds)


@pytest.mark.parametrize("diagonal", [[math.nan, 2.0], [1.0, math.inf], [-math.inf, 0.0]], ids=str)
def test_eigenvalues_from_bonds_reject_a_diagonal_that_is_not_finite(diagonal):
    with pytest.raises(ValueError, match="not finite"):
        spectral.eigenvalues_from_bonds(diagonal, [(0, 1, 1.0)])


def test_symmetric_eigenvalues_raise_past_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_QL_ITER", 0)
    assert spectral.eigenvalues_from_bonds([2.0, 1.0], []) == (2.0, 1.0)
    with pytest.raises(RuntimeError, match="did not converge"):
        spectral.eigenvalues_from_bonds([0.0, 0.0], [(0, 1, 1.0)])


def test_symmetric_eigenvalues_check_the_invariants(monkeypatch):
    # an eigenvalue 1e-9 off is caught by the trace check, not returned
    ql = spectral._ql_implicit

    def one_off(d, e):
        eigenvalues = ql(d, e)
        eigenvalues[0] += 1e-9
        return eigenvalues

    monkeypatch.setattr(spectral, "_ql_implicit", one_off)
    with pytest.raises(RuntimeError, match="trace"):
        spectral.eigenvalues_from_bonds(*_band_bonds("cycle-7"))


def test_invariant_check_catches_a_wrong_eigenvalue():
    # the matrix [[2, 1], [1, 2]], as its diagonal and its one off-diagonal entry
    a = ([2.0, 2.0], [1.0])
    spectral._check_invariants(*a, [3.0, 1.0])
    with pytest.raises(RuntimeError, match="trace"):
        spectral._check_invariants(*a, [3.0, 1.0 + 1e-10])
    with pytest.raises(RuntimeError, match="Frobenius"):
        spectral._check_invariants(*a, [1.0 + 2.0**0.5, 3.0 - 2.0**0.5])  # right sum only
    with pytest.raises(RuntimeError):
        spectral._check_invariants(*a, [math.nan, 1.0])


# ---------------------------------------------------------------------------
# Perron-Frobenius vectors
# ---------------------------------------------------------------------------


def test_perron_a2_components_equal():
    pv = perron_vector([[0.0, 1.0], [1.0, 0.0]])
    assert abs(pv.components[0] - pv.components[1]) <= 1e-14
    assert abs(pv.eigenvalue - 1.0) <= 1e-12  # 2 cos(pi/3)


def test_perron_e8_closed_forms():
    u = perron_components("E8")
    th = math.pi / 30
    closed = (
        2 * math.sin(th),
        2 * math.sin(2 * th),
        2 * math.sin(3 * th),
        2 * math.sin(4 * th),
        2 * math.sin(5 * th),
        math.sin(2 * th) / math.sin(3 * th),
        math.sin(th) / math.sin(3 * th),
        math.sin(th) / math.sin(2 * th),
    )
    for got, want in zip(u, closed):
        assert abs(got - want) <= 1e-12


def test_perron_e8_four_decimal_reference():
    u = perron_components("E8")
    reference = (0.2091, 0.4158, 0.6180, 0.8135, 1.0, 0.6728, 0.3383, 0.5028)
    for got, want in zip(u, reference):
        assert abs(got - want) <= 5e-5


def test_perron_e8_recurrences():
    # the left eigenproblem written out per node: neighbour sums against lambda
    u = perron_components("E8")
    lam = 2.0 * math.cos(math.pi / 30)
    u1, u2, u3, u4, u5, u6, u7, u8 = u
    residuals = (
        u2 - lam * u1,
        u1 + u3 - lam * u2,
        u2 + u4 - lam * u3,
        u3 + u5 - lam * u4,
        u4 + u6 + u8 - lam * u5,
        u5 + u7 - lam * u6,
        u6 - lam * u7,
        u5 - lam * u8,
    )
    assert max(abs(r) for r in residuals) <= 1e-10


def test_perron_first_component_normalization():
    u = perron_components("E8")
    assert abs(u[0] - 2.0 * math.sin(math.pi / 30)) <= 1e-14
    assert abs(u[4] - 1.0) <= 1e-12  # branch-node component lands at 1


def test_perron_normalization_scales_only():
    a = [[float(v) for v in row] for row in dynkin_adjacency(cartan_matrix(AlgebraId("E", 8)))]
    u_max = perron_vector(a).components
    u_first = perron_components("E8")
    assert max(u_max) == 1.0
    for x, y in zip(u_max, u_first):
        assert abs(x / y - u_max[0] / u_first[0]) <= 1e-12


def test_perron_left_vector_on_nonsymmetric_adjacency():
    # B2 adjacency is asymmetric; the left eigenvector satisfies u A = lambda u
    a = [[float(v) for v in row] for row in dynkin_adjacency(cartan_matrix(AlgebraId("B", 2)))]
    pv = perron_vector(a)
    n = len(a)
    for j in range(n):
        image = sum(pv.components[i] * a[i][j] for i in range(n))
        assert abs(image - pv.eigenvalue * pv.components[j]) <= 1e-12


def test_perron_eigenvalue_is_top_of_spectrum():
    a = [[float(v) for v in row] for row in dynkin_adjacency(cartan_matrix(AlgebraId("E", 8)))]
    pv = perron_vector(a)
    top = jacobi_eigen(a).eigenvalues[0]
    assert abs(pv.eigenvalue - top) <= 1e-12
    assert abs(pv.eigenvalue - 2.0 * math.cos(math.pi / 30)) <= 1e-12


def test_perron_rejects_negative_entries():
    with pytest.raises(ValueError):
        perron_vector([[0.0, -1.0], [1.0, 0.0]])


def test_perron_rejects_reducible():
    with pytest.raises(ValueError):
        perron_vector([[1.0, 0.0], [0.0, 2.0]])


def dense_perron(a, shift=1.0):
    """perron_vector's power iteration on shift * I + a with a dense step.

    Every product, zeros too, in row order; ``shift`` 1.0 is the one
    perron_vector runs.
    """
    n = len(a)

    def step(vec):
        w = [row_order_sum(vec[i] * a[i][j] for i in range(n)) + shift * vec[j] for j in range(n)]
        top = max(w)
        nxt = [x / top for x in w]
        return nxt, max(abs(x - y) for x, y in zip(nxt, vec))

    u, delta = step([1.0] * n)
    while delta >= POWER_DELTA_TOL:
        u, delta = step(u)
    for _ in range(200):
        nxt, nxt_delta = step(u)
        if nxt_delta >= delta:
            break
        u, delta = nxt, nxt_delta
    k = max(range(n), key=lambda i: u[i])
    image = [row_order_sum(u[i] * a[i][j] for i in range(n)) for j in range(n)]
    scale = 1.0 / max(u)
    return PerronVector(tuple(x * scale for x in u), image[k] / u[k])


@pytest.mark.parametrize("name", classical.all_algebras(12))
def test_sparse_perron_is_bit_identical_to_dense(name):
    a = [[float(v) for v in row] for row in dynkin_adjacency(root_system(name).cartan)]
    assert perron_vector(a) == dense_perron(a)


@st.composite
def sparse_irreducible_matrices(draw, max_n=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    weights = st.floats(min_value=0.25, max_value=4.0)
    node = st.integers(min_value=0, max_value=n - 1)
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):  # a directed cycle through every node: irreducible
        m[i][(i + 1) % n] = draw(weights)
    # at most n - 1 more entries, so at least one entry stays zero
    for i, j, x in draw(st.lists(st.tuples(node, node, weights), max_size=n - 1)):
        m[i][j] = x
    return m


@settings(max_examples=60, deadline=None)
@given(sparse_irreducible_matrices())
def test_sparse_perron_is_bit_identical_to_dense_on_random_matrices(a):
    assert any(x == 0.0 for row in a for x in row)
    assert perron_vector(a) == dense_perron(a)


@st.composite
def sparse_nonnegative_matrices(draw, max_n=6):
    """Entries 0 or in [1/4, 4]; half carry a directed cycle through every node."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    weights = st.floats(min_value=0.25, max_value=4.0)
    node = st.integers(min_value=0, max_value=n - 1)
    m = [[0.0] * n for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            m[i][(i + 1) % n] = draw(weights)
    for i, j, x in draw(st.lists(st.tuples(node, node, weights), max_size=2 * n)):
        m[i][j] = x
    return m


def strongly_connected(a):
    """Every node reaches every node (itself by the empty path), by a boolean Warshall closure."""
    n = len(a)
    reach = [[i == j or a[i][j] != 0.0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [x or y for x, y in zip(reach[i], reach[k])]
    return all(map(all, reach))


@settings(max_examples=120, deadline=None)
@given(sparse_nonnegative_matrices())
def test_perron_rejects_exactly_the_matrices_that_are_not_irreducible(a):
    if not strongly_connected(a):
        with pytest.raises(ValueError, match="not irreducible"):
            perron_vector(a)
        return
    pv = perron_vector(a)
    n = len(a)
    assert min(pv.components) > 0.0 and max(pv.components) == 1.0
    residual = max(
        abs(sum(pv.components[i] * a[i][j] for i in range(n)) - pv.eigenvalue * pv.components[j])
        for j in range(n)
    )
    assert residual <= 1e-10 * pv.eigenvalue


@pytest.mark.parametrize(
    "a",
    [
        [[2.0, 1.0], [0.0, 1.0]],
        [[1, 1], [0, 1]],
        [[0.0, math.nan], [1.0, 0.0]],
        [[0.0, 1.0], [math.inf, 0.0]],
        pytest.param([[0, 10**400], [1, 0]], id="int 10**400"),
    ],
    ids=str,
)
def test_perron_rejects_a_bad_matrix_without_iterating(a):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        perron_vector(a)
    assert time.perf_counter() - start < 0.01


@pytest.mark.parametrize(
    "a",
    [
        [[1e308, 1e308], [1e308, 1e308]],
        # irreducible, spectral radius about 1.4e4, yet the first step's sums overflow
        [[0.0, 1e308, 0.0], [1e-300, 0.0, 1e-300], [0.0, 1e308, 0.0]],
    ],
    ids=str,
)
def test_perron_overflow_raises_at_the_first_step_that_is_not_finite(a):
    start = time.perf_counter()
    with pytest.raises(OverflowError, match="overflowed"):
        perron_vector(a)
    assert time.perf_counter() - start < 0.01


def test_perron_non_convergence_is_a_runtime_error(monkeypatch):
    # irreducible, but I + a has eigenvalues 1 +/- 1e-15, too close for power iteration
    monkeypatch.setattr(spectral, "_MAX_POWER_ITER", 1000)
    with pytest.raises(RuntimeError, match="did not converge in 1000 steps"):
        perron_vector([[0.0, 1e-30], [1.0, 0.0]])


@pytest.mark.parametrize(
    "a, components",
    [([[0.0, 1e6], [1e-6, 0.0]], (1e-6, 1.0)), ([[0.0, 1e-6], [1e6, 0.0]], (1.0, 1e-6))],
    ids=str,
)
def test_perron_lopsided_bipartite_input_converges(a, components):
    # rho = 1 while a column sums to 1e6: a shift scaled by the largest column
    # sum would stall on the eigenvalue -1; I + a has eigenvalues 2 and 0
    pv = perron_vector(a)
    for x, y in zip(pv.components, components, strict=True):
        assert abs(x - y) <= 1e-12 * y
    assert abs(pv.eigenvalue - 1.0) <= 1e-12


def test_perron_a31_closed_form():
    # A_n: component j of the Perron vector is sin(j pi / (n + 1)), max 1 at the middle
    a = [[float(v) for v in row] for row in dynkin_adjacency(cartan_matrix(AlgebraId("A", 31)))]
    pv = perron_vector(a)
    for j, got in enumerate(pv.components, start=1):
        assert abs(got - math.sin(j * math.pi / 32)) <= 1e-12
    assert abs(pv.eigenvalue - 2.0 * math.cos(math.pi / 32)) <= 1e-12


def _closed_form_perron(family, n):
    """The Perron vector of X_n by its closed form, before scaling to max 1, and h."""
    if family == "A":
        h = n + 1
        return [math.sin(j * math.pi / h) for j in range(1, n + 1)], h
    if family in "BC":
        h = 2 * n
        u = [math.sin(j * math.pi / h) for j in range(1, n + 1)]
        if family == "C":
            u[-1] = 0.5
        return u, h
    h = 2 * n - 2
    return [math.sin(j * math.pi / h) for j in range(1, n - 1)] + [0.5, 0.5], h


@pytest.mark.parametrize("name", [f"{f}{n}" for n in (19, 25, 31) for f in "ABCD"])
def test_perron_closed_forms_at_the_top_ranks(name):
    # A_n: sin(j pi/(n+1)); B_n: sin(j pi/2n); C_n: the same but u_n = 1/2;
    # D_n: sin(j pi/(2n-2)) along the chain, 1/2 at both spinor nodes
    pv = perron_vector(dynkin_adjacency(root_system(name).cartan))
    want, h = _closed_form_perron(name[0], int(name[1:]))
    top = max(want)
    assert len(pv.components) == len(want)
    for got, x in zip(pv.components, want):
        assert abs(got - x / top) <= 1e-11 * (x / top)
    lam = 2.0 * math.cos(math.pi / h)
    assert abs(pv.eigenvalue - lam) <= 1e-11 * lam


# the layouts the sweeps take apart: long chains with one or two layers, one
# branch node (a layer of one column), the non-symmetric weights of B, C, F, G
BIT_IDENTITY_ALGEBRAS = [f"{f}{n}" for n in (19, 25, 31) for f in "ABCD"] + [
    "E6", "E7", "E8", "F4", "G2",
]


@pytest.mark.parametrize("name", BIT_IDENTITY_ALGEBRAS)
def test_perron_is_bit_identical_to_the_column_loop(name):
    a = dynkin_adjacency(root_system(name).cartan)
    assert perron_vector(a) == column_perron(a)


@st.composite
def uneven_irreducible_matrices(draw, max_n=8):
    """A cycle through every node, one column full and a few more entries: uneven degrees.

    Weights are 1.0 half the time, so that unit and other entries share a
    layer; n = 1 gives the zero and the positive 1 x 1 matrices.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    weights = st.one_of(st.just(1.0), st.floats(min_value=0.25, max_value=4.0))
    if n == 1:
        return [[draw(st.one_of(st.just(0.0), weights))]]
    node = st.integers(min_value=0, max_value=n - 1)
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        m[i][(i + 1) % n] = draw(weights)
    full = draw(node)
    for i in range(n):
        m[i][full] = draw(weights)
    for i, j, x in draw(st.lists(st.tuples(node, node, weights), max_size=n)):
        m[i][j] = x
    return m


@settings(max_examples=150, deadline=None)
@given(uneven_irreducible_matrices())
@example([[0.0]])
@example([[2.5]])
@example([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
def test_perron_is_bit_identical_to_the_column_loop_on_uneven_columns(a):
    assert perron_vector(a) == column_perron(a)


@pytest.mark.parametrize(
    "name", classical.all_algebras(8) + [f"{f}{n}" for n in (16, 31) for f in "ABCD"]
)
def test_perron_agrees_with_the_iteration_on_2i_plus_a(name):
    # the shift I + A replaced 2I + A: the same vector to well within 1e-10
    a = dynkin_adjacency(root_system(name).cartan)
    got, old = perron_vector(a), column_perron(a, shift=2.0)
    for x, y in zip(got.components, old.components, strict=True):
        assert abs(x - y) <= 1e-10 * y
    assert abs(got.eigenvalue - old.eigenvalue) <= 1e-10 * old.eigenvalue


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ALL_ALGEBRAS + [f + str(r) for f in "ABCD" for r in (19, 25, 31, 64)]
)
def test_exponents_match_classical_tables(name):
    rs = root_system(name)
    eig = adjacency_eigen(name)
    got = recover_exponents(eig.eigenvalues, rs.coxeter_number)
    assert got == classical.exponents(name[0], int(name[1:]))


def test_exponents_a1():
    assert recover_exponents([0.0], 2) == (1,)


def test_exponents_g2():
    assert recover_exponents([math.sqrt(3), -math.sqrt(3)], 6) == (1, 5)


def test_exponents_reject_wrong_coxeter_number():
    eig = adjacency_eigen("E8")
    with pytest.raises(ValueError):
        recover_exponents(eig.eigenvalues, 29)


def test_exponents_reject_out_of_range():
    with pytest.raises(ValueError):
        recover_exponents([2.5], 6)


# ---------------------------------------------------------------------------
# symmetrized adjacency agrees with the exact characteristic polynomial
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["B2", "G2", "F4"])
def test_symmetrized_route_matches_exact_charpoly_roots(name):
    rs = root_system(name)
    route_one = sorted(jacobi_eigen(dense(*masses._adjacency_bonds(rs))).eigenvalues)
    poly = char_poly_exact(from_rows(dynkin_adjacency(rs.cartan)))
    route_two = sorted(refine_real_roots(poly, -2.5, 2.5))
    assert len(route_one) == len(route_two)
    for a, b in zip(route_one, route_two):
        assert abs(a - b) <= 1e-10
