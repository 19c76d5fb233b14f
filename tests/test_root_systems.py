import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toda_spectrum as ts
from dense_reference import (
    dense,
    dense_cartan_entries,
    dense_eigenvalues,
    dense_root_system,
    dense_validate,
    from_rows,
)
from toda_spectrum import classical, masses, root_systems
from toda_spectrum.exact_poly import char_poly_exact
from toda_spectrum.root_systems import (
    AlgebraId,
    CartanMatrix,
    InvalidAlgebraError,
    _raise_to_dominant,
    cartan_matrix,
    dynkin_adjacency,
    embed_roots,
    generate_roots,
    root_system,
)
from toda_spectrum.spectral import perron_vector

ALL_ALGEBRAS = classical.all_algebras(8)
# the top rank of the float_highrank benchmark workload
TOP_RANK = ["A31", "B31", "C31", "D31"]


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------


def test_parse_names():
    assert AlgebraId.parse("E8") == AlgebraId("E", 8)
    assert AlgebraId.parse("a5") == AlgebraId("A", 5)
    assert AlgebraId.parse(" b3 ") == AlgebraId("B", 3)
    assert str(AlgebraId.parse("g2")) == "G2"


@pytest.mark.parametrize(
    "bad",
    # the last four have a rank in digits that are not ASCII
    ["B1", "C1", "D2", "E5", "E9", "F3", "G3", "H4", "A0", "foo", "8E"]
    + ["A\u0663", "E\uff18", "A\u00a03", "B\u0968"],
)
def test_parse_rejects_invalid(bad):
    with pytest.raises(InvalidAlgebraError):
        AlgebraId.parse(bad)


def test_parse_rejects_a_rank_with_more_digits_than_int_converts():
    with pytest.raises(InvalidAlgebraError, match="rank with 5000 digits is too large"):
        AlgebraId.parse("A" + "9" * 5000)


@pytest.mark.parametrize("family, rank", [("A", 2.5), ("E", 7.0), ("A", True), ("A", "3")], ids=str)
def test_algebra_id_rejects_a_rank_that_is_not_an_int(family, rank):
    with pytest.raises(InvalidAlgebraError, match="is not an integer"):
        AlgebraId(family, rank)


def test_cartan_matrix_g2():
    assert cartan_matrix(AlgebraId("G", 2)).entries == ((2, -1), (-3, 2))


def test_cartan_matrix_a1():
    assert cartan_matrix(AlgebraId("A", 1)).entries == ((2,),)


def test_cartan_matrix_e8_matches_adjacency():
    want_adjacency = (
        (0, 1, 0, 0, 0, 0, 0, 0),
        (1, 0, 1, 0, 0, 0, 0, 0),
        (0, 1, 0, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 1, 0, 0, 0),
        (0, 0, 0, 1, 0, 1, 0, 1),
        (0, 0, 0, 0, 1, 0, 1, 0),
        (0, 0, 0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, 0, 0, 0),
    )
    assert dynkin_adjacency(cartan_matrix(AlgebraId("E", 8))) == want_adjacency


@pytest.mark.parametrize(
    "entries",
    [
        ((2, -1, 0.0), (-1, 2, -1), (Fraction(0), -1, 2)),
        ((2, -1, False), (-1, 2, -1), (False, -1, 2)),
    ],
    ids=["float-and-Fraction-zeros", "False-zeros"],
)
def test_dynkin_adjacency_reads_no_zero_from_the_entries(entries):
    # only nonzero entries are type-checked, so these zeros stay in ``entries``
    a3 = cartan_matrix(AlgebraId("A", 3))
    cartan = CartanMatrix(entries)
    assert cartan == a3 and cartan.entries == entries
    adjacency = dynkin_adjacency(cartan)
    assert adjacency == dynkin_adjacency(a3)
    assert all(type(x) is int for row in adjacency for x in row)
    poly = char_poly_exact(from_rows(adjacency))
    assert poly == masses.adjacency_char_poly("A3")
    assert perron_vector(adjacency) == perron_vector(dynkin_adjacency(a3))


def test_cartan_rejects_affine():
    with pytest.raises(InvalidAlgebraError):
        CartanMatrix(((2, -2), (-2, 2)))  # determinant zero: not finite type


def test_cartan_rejects_bad_entries():
    with pytest.raises(InvalidAlgebraError):
        CartanMatrix(((2, -4), (-1, 2)))
    with pytest.raises(InvalidAlgebraError):
        CartanMatrix(((2, -1), (0, 2)))  # asymmetric zero pattern
    with pytest.raises(InvalidAlgebraError):
        CartanMatrix(((1, 0), (0, 2)))  # diagonal


def _bonded(n, bonds):
    """Cartan entries on n nodes, with bonds given as {(i, j): (C_ij, C_ji)}."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), (cij, cji) in bonds.items():
        c[i][j], c[j][i] = cij, cji
    return tuple(map(tuple, c))


# two 5-leaf stars, centred on nodes 5 and 7, joined through node 6
DOUBLE_STAR = _bonded(
    13,
    {(i, 5): (-1, -1) for i in (0, 1, 2, 3, 4, 6)}
    | {(7, j): (-1, -1) for j in (6, 8, 9, 10, 11, 12)},
)


def test_double_star_rejected_although_its_determinant_is_positive():
    assert _det([[Fraction(v) for v in row] for row in DOUBLE_STAR]) == 1536
    with pytest.raises(InvalidAlgebraError, match="pivot -1/2 at node 7 is not positive"):
        CartanMatrix(DOUBLE_STAR)


def _e_like(n):
    """The E-family tree on n nodes: a chain 0..n-2, with node n-1 off node n-4."""
    return _bonded(n, {(i, i + 1): (-1, -1) for i in range(n - 2)} | {(n - 4, n - 1): (-1, -1)})


def _fraction_verdict(entries):
    """The first nonpositive pivot of a leaf-first ``Fraction`` elimination, or None.

    The reference for the integer pivots of ``CartanMatrix``, worded as it
    words them. The tree is walked breadth first from node 0.
    """
    order, parent = [0], {0: -1}
    for node in order:
        for j, v in enumerate(entries[node]):
            if v and j not in parent:
                parent[j] = node
                order.append(j)
    pivot = [Fraction(2)] * len(entries)
    for i in reversed(order):
        if pivot[i] <= 0:
            return f"pivot {pivot[i]} at node {i} is not positive"
        if parent[i] >= 0:
            p = parent[i]
            pivot[p] -= Fraction(entries[p][i] * entries[i][p]) / pivot[i]
    return None


def _verdict(entries):
    try:
        CartanMatrix(entries)
    except InvalidAlgebraError as err:
        return str(err).removesuffix("; matrix is not of finite type")
    return None


@pytest.mark.parametrize(
    "entries, message",
    [
        (_bonded(5, {(1, j): (-1, -1) for j in (0, 2, 3, 4)}), "pivot 0 at node 0 is not positive"),
        (_e_like(9), "pivot 0 at node 0 is not positive"),
        (_e_like(10), "pivot 0 at node 1 is not positive"),
        (DOUBLE_STAR, "pivot -1/2 at node 7 is not positive"),
    ],
    ids=["affine-D4-star", "T(2,3,6)-affine-E8", "T(2,3,7)", "double-star"],
)
def test_integer_pivots_reject_trees_not_of_finite_type(entries, message):
    assert _fraction_verdict(entries) == message
    assert _verdict(entries) == message


def test_integer_pivots_accept_every_finite_type_to_rank_64():
    lowest = {"A": 1, "B": 2, "C": 2, "D": 3}
    names = [f + str(r) for f, lo in lowest.items() for r in range(lo, 65)]
    for name in names + ["E6", "E7", "E8", "F4", "G2"]:
        entries = cartan_matrix(AlgebraId.parse(name)).entries
        assert _fraction_verdict(entries) is None, name
        assert _verdict(entries) is None, name


def test_disconnected_diagram_rejected_when_built():
    with pytest.raises(InvalidAlgebraError, match="not a connected tree"):
        CartanMatrix(((2, 0), (0, 2)))  # A1 x A1


def test_cycle_rejected_as_not_a_tree():
    with pytest.raises(InvalidAlgebraError, match="not a connected tree"):
        CartanMatrix(_bonded(3, {(0, 1): (-1, -1), (1, 2): (-1, -1), (0, 2): (-1, -1)}))


BOND_PAIRS = [(-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2)]


@st.composite
def small_diagrams(draw):
    """Cartan candidates on up to 6 nodes: a random forest plus a few extra bonds."""
    n = draw(st.integers(1, 6))
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n) if draw(st.integers(0, 5))}
    if n > 1:
        all_pairs = list(itertools.combinations(range(n), 2))
        pairs |= draw(st.sets(st.sampled_from(all_pairs), max_size=2))
    return _bonded(n, {pair: draw(st.sampled_from(BOND_PAIRS)) for pair in sorted(pairs)})


@st.composite
def finite_type_diagrams(draw):
    """Cartan candidates on up to 8 nodes: a tree first, then its bond labels.

    Node k hangs off node k - 1 or off a random earlier node, so paths and
    single branch points (the shapes of A, D and E) are common; every bond is
    simple except, in about half the draws, one bond from BOND_PAIRS. A random
    permutation then relabels the nodes.
    """
    n = draw(st.integers(1, 8))
    label = draw(st.permutations(range(n)))
    parents = [draw(st.one_of(st.just(k - 1), st.integers(0, k - 1))) for k in range(1, n)]
    bonds = [(-1, -1)] * (n - 1)
    if n > 1 and draw(st.booleans()):
        bonds[draw(st.integers(0, n - 2))] = draw(st.sampled_from(BOND_PAIRS))
    return _bonded(
        n, {(label[p], label[k]): bond for k, p, bond in zip(range(1, n), parents, bonds)}
    )


def _connected(entries):
    reached, todo = {0}, [0]
    while todo:
        i = todo.pop()
        new = {j for j, v in enumerate(entries[i]) if v} - reached
        reached |= new
        todo += new
    return len(reached) == len(entries)


def _principal_minors_positive(entries):
    n = len(entries)
    return all(
        _det([[Fraction(entries[i][j]) for j in nodes] for i in nodes]) > 0
        for k in range(1, n + 1)
        for nodes in itertools.combinations(range(n), k)
    )


@given(small_diagrams())
def test_finite_type_exactly_when_connected_with_positive_principal_minors(entries):
    # Kac, Infinite-dimensional Lie algebras, Thm 4.3: an indecomposable
    # generalized Cartan matrix is of finite type iff all its principal minors
    # are positive
    want = _connected(entries) and _principal_minors_positive(entries)
    try:
        CartanMatrix(entries)
        accepted = True
    except InvalidAlgebraError:
        accepted = False
    assert accepted == want


@pytest.mark.parametrize(
    "name", classical.all_algebras(14) + [f + str(r) for f in "ABCD" for r in (19, 25, 31, 64)]
)
def test_every_supported_algebra_is_of_finite_type(name):
    cartan = cartan_matrix(AlgebraId.parse(name))
    assert CartanMatrix(cartan.entries) == cartan


@settings(max_examples=400)
@given(finite_type_diagrams())
def test_integer_pivots_reach_the_fraction_verdict_on_random_trees(entries):
    assert _verdict(entries) == _fraction_verdict(entries)


def _outcome(build, entries):
    """The exception type and message ``build(entries)`` raises, or None."""
    try:
        build(entries)
    except Exception as err:  # every exception, so that each must match the reference's
        return type(err), str(err)
    return None


@st.composite
def small_integer_matrices(draw):
    """Up to 6 rows of small integers: random, or a finite-type diagram with a few changes.

    An entry is sometimes a ``float`` or a ``Fraction`` of the same value, and
    a row is sometimes a different length, so type and shape errors are drawn
    as well.
    """
    if draw(st.booleans()):
        rows = [list(row) for row in draw(finite_type_diagrams())]
        n = len(rows)
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[i][j] = draw(st.integers(-4, 3))
    else:
        n = draw(st.integers(0, 6))
        value = st.sampled_from([0, 0, 0, -1, -1, 2, -2, -3, -4, 1])
        rows = [[2 if i == j else draw(value) for j in range(n)] for i in range(n)]
    if rows and draw(st.integers(0, 7)) == 0:
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows[i][j] = draw(st.sampled_from([float, Fraction]))(rows[i][j])
    if rows and draw(st.integers(0, 7)) == 0:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = (rows[i] + [0])[: draw(st.integers(0, len(rows) + 1))]
    return tuple(map(tuple, rows))


@settings(max_examples=600)
@given(small_integer_matrices())
def test_bond_list_validation_raises_what_the_dense_scan_raises(entries):
    assert _outcome(CartanMatrix, entries) == _outcome(dense_validate, entries)


@settings(max_examples=600)
@given(small_integer_matrices())
def test_every_rejection_is_an_invalid_algebra_error(entries):
    outcome = _outcome(CartanMatrix, entries)
    assert outcome is None or outcome[0] is InvalidAlgebraError


@pytest.mark.parametrize(
    "entries, message",
    [
        # ragged matrices fail the first check, before any entry is read
        (((2, -1), ()), "Cartan matrix must be square"),
        (((2, 0), ()), "Cartan matrix must be square"),
        (((2, 0, -1), (0, 2), (-1, 0, 2)), "Cartan matrix must be square"),
        # entry values are checked before the zero pattern, so the -5 at (2,1)
        # is named, not the zero at (0,1) that faces the bond at (1,0)
        (
            ((2, 0, 0), (-1, 2, 0), (0, -5, 2)),
            "off-diagonal Cartan entry -5 at (2,1) not in {0,-1,-2,-3}",
        ),
        (
            ((2, 0, -7), (-1, 2, 0), (-1, 0, 2)),
            "off-diagonal Cartan entry -7 at (0,2) not in {0,-1,-2,-3}",
        ),
        # every value is allowed, but the bond (1,2) has a zero transpose
        (((2, -1, 0), (-1, 2, -1), (0, 0, 2)), "Cartan zero pattern must be symmetric"),
        # a float or Fraction entry is not an integer, however equal its value
        (((2.0, -1), (-1, 2)), "Cartan entry 2.0 at (0,0) is not an integer"),
        (((2, -1.0), (-1, 2)), "Cartan entry -1.0 at (0,1) is not an integer"),
        (((2, -1), (Fraction(-1), 2)), "Cartan entry Fraction(-1, 1) at (1,0) is not an integer"),
        # bool is an int, so True is checked by its value
        (((True, -1), (-1, 2)), "Cartan diagonal entries must equal 2"),
        (((2, True), (True, 2)), "off-diagonal Cartan entry True at (0,1) not in {0,-1,-2,-3}"),
    ],
)
def test_bond_list_validation_on_malformed_matrices(entries, message):
    assert _outcome(dense_validate, entries) == (InvalidAlgebraError, message)
    assert _outcome(CartanMatrix, entries) == (InvalidAlgebraError, message)


def _typed(x):
    """``x`` with the type of each element beside it, through nested tuples."""
    return (tuple, tuple(map(_typed, x))) if isinstance(x, tuple) else (type(x), x)


@pytest.mark.parametrize(
    "name", classical.all_algebras(16) + [f + str(r) for f in "ABCD" for r in (31, 64)]
)
def test_build_equals_the_dense_reference(name):
    aid = AlgebraId.parse(name)
    rs = generate_roots(cartan_matrix(aid))
    want = dense_root_system(dense_cartan_entries(aid.family, aid.rank))
    got = {
        "entries": rs.cartan.entries,
        "bonds": rs.cartan.bonds,
        "tree_order": rs.cartan.tree_order,
        "symmetrizers": rs.symmetrizers,
        "gram": rs.gram,
        "marks": rs.marks,
        "coxeter_number": rs.coxeter_number,
    }
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == value, key
        assert _typed(got[key]) == _typed(value), key


# ---------------------------------------------------------------------------
# root generation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_ALGEBRAS + TOP_RANK)
def test_positive_root_counts(name):
    rs = root_system(name)
    assert len(rs.positive_roots) == classical.positive_root_count(name[0], int(name[1:]))


@pytest.mark.parametrize("name", ALL_ALGEBRAS + TOP_RANK)
def test_coxeter_numbers(name):
    rs = root_system(name)
    assert rs.coxeter_number == classical.coxeter_number(name[0], int(name[1:]))
    assert rs.coxeter_number == 1 + sum(rs.marks)


@pytest.mark.parametrize("name", ALL_ALGEBRAS)
def test_highest_root_dominates_componentwise(name):
    rs = root_system(name)
    for root in rs.positive_roots:
        assert all(c <= m for c, m in zip(root, rs.marks))


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "E6", "G2", "F4"])
def test_reflection_closure_idempotent(name):
    rs = root_system(name)
    n = rs.rank
    cm = rs.cartan.entries
    known = set(rs.positive_roots)
    for coeffs in rs.positive_roots:
        for i in range(n):
            k = sum(coeffs[j] * cm[j][i] for j in range(n))
            image = list(coeffs)
            image[i] -= k
            img = tuple(image)
            if all(x >= 0 for x in img) and any(img):
                assert img in known


def dense_positive_roots(cartan):
    """Reflection closure with the pairing summed over every Cartan entry, zeros too."""
    n = cartan.rank
    seen = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    frontier = list(seen)
    while frontier:
        new = []
        for coeffs in frontier:
            for i in range(n):
                k = sum(coeffs[j] * cartan.entries[j][i] for j in range(n))
                image = list(coeffs)
                image[i] -= k
                img = tuple(image)
                if img not in seen and all(x >= 0 for x in img) and any(img):
                    seen.add(img)
                    new.append(img)
        frontier = new
    return tuple(sorted(seen, key=lambda c: (sum(c), c)))


@pytest.mark.parametrize("name", classical.all_algebras(12))
def test_sparse_closure_equals_dense_closure(name):
    cartan = cartan_matrix(AlgebraId.parse(name))
    assert generate_roots(cartan).positive_roots == dense_positive_roots(cartan)


def _walk_agrees_with_closure(cartan):
    rs = generate_roots(cartan)
    assert "positive_roots" not in vars(rs)
    theta = rs.positive_roots[-1]
    assert rs.marks == theta
    assert rs.coxeter_number == 1 + sum(theta)
    # |positive roots| = rank * h / 2, a count the walk never sees
    assert rs.coxeter_number * rs.rank == 2 * len(rs.positive_roots)


@pytest.mark.parametrize(
    "name",
    classical.all_algebras(14)
    + [f + str(r) for f in "ABCD" for r in range(19, 32)]
    + ["A64", "D48"],
)
def test_raising_walk_ends_at_the_closures_highest_root(name):
    _walk_agrees_with_closure(cartan_matrix(AlgebraId.parse(name)))


@settings(max_examples=400)
@given(finite_type_diagrams())
def test_raising_walk_ends_at_the_closures_highest_root_on_random_diagrams(entries):
    try:
        cartan = CartanMatrix(entries)
    except InvalidAlgebraError:
        return
    _walk_agrees_with_closure(cartan)


@settings(max_examples=200, deadline=None)
@given(finite_type_diagrams())
def test_adjacency_eigenvalues_agree_with_jacobi_on_random_diagrams(entries):
    try:
        cartan = CartanMatrix(entries)
    except InvalidAlgebraError:
        return
    a = dense(*masses._adjacency_bonds(generate_roots(cartan)))
    got = dense_eigenvalues(a)
    want = ts.jacobi_eigen(a).eigenvalues
    scale = max(map(abs, want))
    for x, y in zip(got, want, strict=True):
        assert abs(x - y) <= 1e-13 * scale


@pytest.mark.parametrize("name", ["B2", "B3", "B6", "C2", "C3", "C6", "F4", "G2"])
def test_raising_walk_needs_a_long_start(name):
    # from a short simple root the walk ends at the highest short root, not at theta
    rs = root_system(name)
    short = [r for r in rs.positive_roots if _squared_length(rs, r) < 2]
    for start, d in enumerate(rs.symmetrizers):
        end = _raise_to_dominant(rs.cartan.bonds, start)
        if d == 1:
            assert end == rs.marks
        else:
            assert end == short[-1] != rs.marks


def _exponents(name):
    return ts.recover_exponents(
        ts.adjacency_eigen(name).eigenvalues, ts.root_system(name).coxeter_number
    )


def _spectrum_both(name):
    return ts.spectrum_method1(name), ts.spectrum_method2(name), ts.mass_ratio_spread(name)


# the request kinds of the benchmark's float_highrank and exact_midrank workloads
FLOAT_KINDS = (ts.spectrum_method2, ts.perron_components, _exponents)
EXACT_KINDS = (_spectrum_both, ts.mass_char_poly)


@pytest.mark.parametrize(
    "name, kinds",
    [
        pytest.param(n, FLOAT_KINDS + EXACT_KINDS, id=n)
        for n in ("A14", "B9", "C10", "D14", "E8", "F4", "G2")
    ]
    + [pytest.param(n, FLOAT_KINDS, id=n) for n in TOP_RANK],
)
def test_spectra_never_build_the_positive_roots(name, kinds, monkeypatch):
    aid = AlgebraId.parse(name)
    rs = generate_roots(cartan_matrix(aid))
    lookups = []
    monkeypatch.setattr(root_systems, "_root_system", lambda a: lookups.append(a) or rs)
    # fresh per-algebra caches, so every request recomputes from rs
    for cached in ("_mass_char_poly", "_perron_components", "_mass_squares"):
        fn = getattr(masses, cached).__wrapped__
        monkeypatch.setattr(masses, cached, functools.lru_cache(maxsize=None)(fn))
    for kind in kinds:
        kind(name)
    assert lookups and set(lookups) == {aid}
    # nor the dense Gram table: the spectra read the Gram entries off the bonds
    assert "gram" not in vars(rs)
    assert "positive_roots" not in vars(rs)
    roots = rs.positive_roots
    assert roots == dense_positive_roots(rs.cartan)
    assert vars(rs)["positive_roots"] is roots
    assert rs.positive_roots is roots


def _classical_marks(family, rank):
    # highest-root coefficients in this package's node numbering
    if family == "A":
        return (1,) * rank
    if family == "B":
        return (1,) + (2,) * (rank - 1)
    if family == "C":
        return (2,) * (rank - 1) + (1,)
    return (1,) + (2,) * (rank - 3) + (1, 1)


@pytest.mark.parametrize("name", [n for n in ALL_ALGEBRAS if n[0] in "ABCD"] + TOP_RANK)
def test_classical_marks(name):
    assert root_system(name).marks == _classical_marks(name[0], int(name[1:]))


def test_e8_highest_root_and_coxeter():
    rs = root_system("E8")
    assert rs.marks == (2, 3, 4, 5, 6, 4, 2, 3)
    assert rs.coxeter_number == 30


def test_a1_trivial_system():
    rs = root_system("A1")
    assert rs.positive_roots == ((1,),)
    assert rs.marks == (1,)
    assert rs.coxeter_number == 2


def test_a2_by_hand():
    # brute-force closure by hand: {a1, a2, a1+a2}
    rs = root_system("A2")
    assert rs.positive_roots == ((0, 1), (1, 0), (1, 1))
    assert rs.marks == (1, 1)
    assert rs.coxeter_number == 3


def test_root_system_closed_once_whatever_the_spelling(monkeypatch):
    import toda_spectrum.root_systems as module

    calls = []
    original = module.generate_roots
    monkeypatch.setattr(
        module, "generate_roots", lambda *args: calls.append(args) or original(*args)
    )
    rs = root_system(AlgebraId("A", 10))
    assert root_system("A10") is rs
    assert root_system("a10") is rs
    assert len(calls) <= 1


def test_generate_roots_from_raw_cartan():
    rs = generate_roots(CartanMatrix(((2, -1), (-1, 2))))
    assert rs.marks == (1, 1)
    assert len(rs.positive_roots) == 3


# ---------------------------------------------------------------------------
# gram form and normalization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_ALGEBRAS)
def test_gram_symmetric_and_long_root_normalized(name):
    rs = root_system(name)
    n = rs.rank
    for i in range(n):
        for j in range(n):
            assert rs.gram[i][j] == rs.gram[j][i]
        assert rs.gram[i][i] == 2 * rs.symmetrizers[i]
    assert max(2 * d for d in rs.symmetrizers) == 2


@pytest.mark.parametrize("name", ALL_ALGEBRAS)
def test_gram_positive_definite(name):
    # exact leading principal minors, all positive
    rs = root_system(name)
    n = rs.rank
    for k in range(1, n + 1):
        sub = [[rs.gram[i][j] for j in range(k)] for i in range(k)]
        assert _det(sub) > 0


def _det(rows):
    n = len(rows)
    a = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def test_b2_symmetrizers():
    rs = root_system("B2")
    assert rs.symmetrizers == (Fraction(1), Fraction(1, 2))


def test_g2_symmetrizers():
    rs = root_system("G2")
    assert rs.symmetrizers == (Fraction(1, 3), Fraction(1))


# ---------------------------------------------------------------------------
# Euclidean embedding
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["A1", "A5", "B3", "C4", "D5", "E6", "E8", "F4", "G2"])
def test_embedding_reproduces_gram_form(name):
    rs = root_system(name)
    vectors = embed_roots(rs)
    n = rs.rank
    # simple roots: indices 1..n
    for i in range(n):
        for j in range(n):
            dot = sum(a * b for a, b in zip(vectors[i + 1], vectors[j + 1]))
            assert abs(dot - float(rs.gram[i][j])) <= 1e-12
    # the affine vector is minus the mark-weighted sum of the simple roots
    for k in range(n):
        recon = -sum(rs.marks[i] * vectors[i + 1][k] for i in range(n))
        assert abs(vectors[0][k] - recon) <= 1e-12


def _squared_length(rs, root):
    """c^T G c for a root with simple-root coefficients c: exact, from the Gram form."""
    n = rs.rank
    return sum(root[i] * rs.gram[i][j] * root[j] for i in range(n) for j in range(n))


def test_e8_all_embedded_roots_have_length_two():
    rs = root_system("E8")
    assert len(rs.positive_roots) == 120
    assert all(_squared_length(rs, root) == 2 for root in rs.positive_roots)
    affine = embed_roots(rs)[0]
    assert abs(sum(x * x for x in affine) - 2.0) <= 1e-12


def test_a1_embedding():
    rs = root_system("A1")
    vectors = embed_roots(rs)
    assert abs(vectors[1][0] - math.sqrt(2)) <= 1e-15
    assert abs(vectors[0][0] + math.sqrt(2)) <= 1e-15


def test_b2_long_and_short_lengths():
    rs = root_system("B2")
    lengths = sorted(_squared_length(rs, root) for root in rs.positive_roots)
    assert lengths == [1, 1, 2, 2]
