import ast
import itertools
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cuspidor
from cuspidor.errors import InvalidAction, InvalidPrimePower
from cuspidor.exactcore import (
    FinAb,
    Mat,
    QV,
    RankReport,
    abelian_basis,
    coinvariants,
    is_prime,
    mult_order,
    prime_factors,
    prime_power,
    qz_kernel,
    smith_normal_form,
    solve_mod,
    twisted_fixed_points,
)

# Deterministic and small, so the property tests cost Tier-1 little.
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


def snf_check(m):
    u, d, v = smith_normal_form(m)
    assert u * m * v == d
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    diag = [d.rows[i][i] for i in range(min(d.nrows, d.ncols))]
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    for i in range(d.nrows):
        for j in range(d.ncols):
            if i != j:
                assert d.rows[i][j] == 0
    return diag


def test_snf_spec_examples():
    diag = snf_check(Mat([[2, 0], [0, 3]]))
    assert diag == [1, 6]
    u, d, v = smith_normal_form(Mat.identity(3))
    assert d == Mat.identity(3)
    assert u == Mat.identity(3)
    assert v == Mat.identity(3)
    diag = snf_check(Mat([[0]]))
    assert diag == [0]


def test_snf_random_matrices():
    rng = random.Random(20240811)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        mat = Mat([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)])
        snf_check(mat)


def test_snf_deterministic():
    m = Mat([[4, 6, 2], [6, 4, 8]])
    first = smith_normal_form(m)
    again = smith_normal_form(m)
    assert first[0] == again[0] and first[1] == again[1] and first[2] == again[2]


def test_twisted_fixed_points_sl2_coxeter():
    g = twisted_fixed_points(Mat([[-3]]))
    assert isinstance(g, FinAb)
    assert g.factors == (4,)
    gen = g.gens[0]
    # the section really is fixed by F: (F-1)gen = 0 in Q/Z
    assert (Mat([[-3]]) - Mat.identity(1)).apply(gen.coords)[0] % 1 == 0


def test_twisted_fixed_points_identity_is_rank_report():
    rep = twisted_fixed_points(Mat.identity(2))
    assert isinstance(rep, RankReport)
    assert rep.free_rank == 2
    assert rep.torsion.order == 1


def test_twisted_fixed_points_order_two_twist():
    f = Mat([[0, -3], [-3, 0]])
    g = twisted_fixed_points(f)
    assert isinstance(g, FinAb)
    assert g.order == 8


def test_twisted_fixed_points_order_matches_det():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 3)
        f = Mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        d = (f - Mat.identity(n)).det()
        if d == 0:
            continue
        g = twisted_fixed_points(f)
        assert isinstance(g, FinAb)
        assert g.order == abs(d)
        # cross-check by exhaustive enumeration over denominators dividing |det|
        if abs(d) <= 24 and n <= 2:
            count = 0
            den = abs(d)
            for nums in _all_tuples(den, n):
                v = QV([Fraction(k, den) for k in nums])
                img = (f - Mat.identity(n)).apply(v.coords)
                if all(Fraction(x) % 1 == 0 for x in img):
                    count += 1
            assert count == g.order


def _all_tuples(den, n):
    if n == 0:
        yield ()
        return
    for head in range(den):
        for rest in _all_tuples(den, n - 1):
            yield (head,) + rest


def test_projection_roundtrip():
    g = twisted_fixed_points(Mat([[0, -3], [-3, 0]]))
    for coords in g.elements():
        v = g.lift(coords)
        assert g.project(v) == coords


def test_coinvariants_trivial_action():
    a = FinAb.abstract([2])
    q = coinvariants(a, [Mat.identity(1)])
    assert q.group.factors == (2,)


def test_coinvariants_inversion_on_z4():
    a = FinAb.abstract([4])
    q = coinvariants(a, [Mat([[-1]])])
    assert q.group.factors == (2,)
    assert q.project((2,)) == q.group.zero  # 2*gen dies
    assert q.project((1,)) != q.group.zero


def test_coinvariants_biquadratic_swap():
    # (Z/2)^3 with coordinates (eps, eta, delta), swapping eps <-> eta:
    # quotient has order 4 and (0,0,1) survives
    a = FinAb.abstract([2, 2, 2])
    swap = Mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    q = coinvariants(a, [swap])
    assert q.group.order == 4
    assert q.project((0, 0, 1)) != q.group.zero


def test_coinvariants_rejects_non_automorphism():
    a = FinAb.abstract([4])
    with pytest.raises(InvalidAction):
        coinvariants(a, [Mat([[2]])])


def test_coinvariants_projection_is_homomorphism():
    rng = random.Random(99)
    for factors, action in [((2, 4), Mat([[1, 0], [2, 3]])), ((8,), Mat([[3]])),
                            ((2, 2, 4), Mat([[0, 1, 0], [1, 0, 0], [0, 0, 3]]))]:
        a = FinAb.abstract(list(factors))
        q = coinvariants(a, [action])
        for _ in range(40):
            x = tuple(rng.randrange(d) for d in a.factors)
            y = tuple(rng.randrange(d) for d in a.factors)
            assert q.project(a.add(x, y)) == q.group.add(q.project(x), q.project(y))
        # (sigma - 1) a dies for every generator
        for j in range(len(a.factors)):
            e = tuple(int(i == j) for i in range(len(a.factors)))
            img = a.apply_matrix(action, e)
            diff = a.add(img, a.neg(e))
            assert q.project(diff) == q.group.zero


# (m - 1)x = c over Q/Z, solved by the kernel of m - 1

def test_solve_affine_homogeneous():
    kernel = twisted_fixed_points(Mat([[-3]]))
    sol = kernel.solve(QV([0]))
    assert sol is not None
    assert sol.is_zero()
    assert kernel.order == 4
    assert len({sol + kernel.lift(c) for c in kernel.elements()}) == 4


def test_solve_affine_spec_example():
    sol = twisted_fixed_points(Mat([[-3]])).solve(QV([Fraction(1, 2)]))
    assert sol is not None
    x = sol.coords[0]
    assert (-4 * x) % 1 == Fraction(1, 2)


def test_solve_affine_no_solution():
    kernel = twisted_fixed_points(Mat.identity(1))
    assert isinstance(kernel, RankReport)
    assert kernel.torsion.solve(QV([Fraction(1, 3)])) is None


def test_solve_needs_the_system_that_built_the_group():
    with pytest.raises(ValueError):
        FinAb.abstract([2, 4]).solve(QV([0, 0]))


def test_abelian_basis_klein():
    elems = [(0, 0), (0, 1), (1, 0), (1, 1)]

    def mul(a, b):
        return ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)

    factors, basis, coords = abelian_basis(elems, mul, (0, 0))
    assert sorted(factors) == [2, 2]
    assert len(coords) == 4


def _sum_group(factors):
    elems = list(itertools.product(*(range(d) for d in factors)))

    def mul(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, factors))

    return elems, mul, (0,) * len(factors)


def _check_presentation(elems, mul, identity, factors, basis, coords):
    """coords is a homomorphism onto ⊕ Z/factors with coords[basis[j]] = e_j."""
    target = FinAb.abstract(factors)
    assert tuple(factors) == target.factors
    assert set(coords) == set(elems)
    assert coords[identity] == target.zero
    for x in elems:
        for y in elems:
            assert coords[mul(x, y)] == target.add(coords[x], coords[y])
    assert set(coords.values()) == set(target.elements())
    for j, b in enumerate(basis):
        assert coords[b] == tuple(int(i == j) for i in range(len(factors)))


@PROPERTY
@given(st.lists(st.integers(2, 12), max_size=3).filter(
           lambda f: math.prod(f) <= 128),
       st.integers(0, 10 ** 6))
def test_abelian_basis_on_sums_of_cyclic_groups(factors, seed):
    elems, mul, zero = _sum_group(factors)
    random.Random(seed).shuffle(elems)
    got, basis, coords = abelian_basis(elems, mul, zero)
    assert tuple(got) == FinAb.abstract(factors).invariant_factors
    # a homomorphism onto a group of the same order: an additive bijection
    _check_presentation(elems, mul, zero, got, basis, coords)


@PROPERTY
@given(st.lists(st.integers(2, 30), max_size=4), st.data())
def test_char_value_is_the_sum_of_coordinate_pairings(factors, data):
    g = FinAb.abstract(factors)
    coords = st.tuples(*(st.integers(-60, 60) for _ in g.factors))
    x, a = data.draw(coords), data.draw(coords)
    want = sum((Fraction(xi * ai, d) for xi, ai, d in zip(x, a, g.factors)),
               Fraction(0)) % 1
    assert g.char_value(x, a) == want


def test_abelian_basis_elementary_abelian_64():
    elems, mul, zero = _sum_group([2] * 6)
    factors, basis, coords = abelian_basis(elems, mul, zero)
    assert factors == [2] * 6
    _check_presentation(elems, mul, zero, factors, basis, coords)


def test_abelian_basis_presents_the_abelianization():
    from cuspidor.clifford import (ConcreteGroup, dihedral8_central_descriptor,
                                   q8_descriptor)
    s3 = list(itertools.permutations(range(3)))

    def compose(a, b):
        return tuple(a[b[i]] for i in range(3))

    cases = [(s3, compose, (0, 1, 2), [2])]
    for ext in (q8_descriptor(), dihedral8_central_descriptor()):
        group = ConcreteGroup(ext)
        assert not group.is_abelian()
        cases.append((group.elements, group.mul, group.identity, [2, 2]))
    for elems, mul, identity, want in cases:
        factors, basis, coords = abelian_basis(elems, mul, identity)
        assert factors == want
        _check_presentation(elems, mul, identity, factors, basis, coords)


def test_the_presentation_decides_abelianness_as_the_pairwise_test_does():
    from cuspidor.acceptance import _elliptic_classes
    from cuspidor.rootdata import build_classical
    from cuspidor.torus import FrobeniusTorus
    groups = []
    for kind, n in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                    ("C", 3), ("D", 3), ("D", 4)]:
        for form in ("sc", "ad"):
            rd = build_classical(kind, n, form)
            groups.append(rd.weyl_group())
            groups += [FrobeniusTorus(rd, w, 3).weyl_centralizer()
                       for w in _elliptic_classes(rd)]
    verdicts = []
    for g in groups:
        factors, _, _ = abelian_basis(g, Mat.__mul__, Mat.identity(g[0].nrows))
        pairwise = all(a * b == b * a for a in g for b in g)
        assert (math.prod(factors) == len(g)) == pairwise
        verdicts.append(pairwise)
    assert len(groups) == 46 and 0 < verdicts.count(False) < 46
    w_b3 = build_classical("B", 3, "sc").weyl_group()
    for a in w_b3:
        for b in w_b3:
            assert a.commutes_with(b) == (a * b == b * a)


def test_qz_kernel_nonsquare():
    m = Mat([[2, 0], [0, 3], [2, 3]])
    g = qz_kernel(m)
    assert isinstance(g, FinAb)
    for coords in g.elements():
        v = g.lift(coords)
        img = m.apply(v.coords)
        assert all(Fraction(x) % 1 == 0 for x in img)


# -- number theory against its definitions ---------------------------------------

def _naive_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


@PROPERTY
@given(st.integers(1, 10 ** 4))
def test_prime_factors_and_is_prime_match_definitions(n):
    primes = prime_factors(n)
    assert primes == sorted(set(primes))
    assert all(_naive_is_prime(p) and n % p == 0 for p in primes)
    rest = n
    for p in primes:
        while rest % p == 0:
            rest //= p
    assert rest == 1
    assert is_prime(n) == _naive_is_prime(n)


@PROPERTY
@given(st.sampled_from([p for p in range(2, 100) if _naive_is_prime(p)]),
       st.integers(1, 13))
def test_prime_power_of_a_prime_power(p, m):
    if p ** m <= 10 ** 4:
        assert prime_power(p ** m) == (p, m)


def _naive_prime_power(q):
    least = next((d for d in range(2, q + 1) if q % d == 0), None)
    if least is None:
        return None
    m = 0
    while q % least == 0:
        q //= least
        m += 1
    return (least, m) if q == 1 else None


@PROPERTY
@given(st.integers(-10 ** 4, 10 ** 4))
def test_prime_power_rejects_every_other_input(q):
    expected = _naive_prime_power(q)
    if expected is not None:
        assert prime_power(q) == expected
    else:
        with pytest.raises(InvalidPrimePower, match="q must be a prime power"):
            prime_power(q)


@PROPERTY
@given(st.integers(1, 10 ** 4), st.integers(-10 ** 4, 10 ** 4))
def test_mult_order_matches_definition(n, a):
    if math.gcd(a, n) != 1:
        with pytest.raises(ValueError):
            mult_order(a, n)
        return
    k = mult_order(a, n)
    assert pow(a, k, n) == 1 % n
    assert all(pow(a, j, n) != 1 % n for j in range(1, k))


# -- maps induced on a finite abelian group, and congruences mod n ----------------

def _small_kernel_and_map(scale, entries, poly):
    """ker(M) on (Q/Z)^n for M = scale·``entries``, and m = a + bM + cM^2.

    m commutes with M, so it maps the kernel into itself; the scale makes
    non-cyclic kernels common.
    """
    n = math.isqrt(len(entries))
    m_rel = scale * Mat([entries[i * n:(i + 1) * n] for i in range(n)])
    ident = Mat.identity(n)
    a, b, c = poly
    return qz_kernel(m_rel), a * ident + b * m_rel + c * (m_rel * m_rel)


@PROPERTY
@given(st.integers(1, 3),
       st.sampled_from([4, 9]).flatmap(
           lambda k: st.lists(st.integers(-3, 3), min_size=k, max_size=k)),
       st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)))
def test_induced_matrix_is_project_of_act(scale, entries, poly):
    group, m = _small_kernel_and_map(scale, entries, poly)
    if isinstance(group, RankReport) or group.order > 512:
        return
    induced = group.induced(m)
    for x in group.elements():
        assert group.apply_matrix(induced, x) == \
            group.project(group.lift(x).act(m))


@PROPERTY
@given(st.integers(1, 12), st.integers(1, 3), st.integers(1, 3), st.data())
def test_solve_mod_matches_brute_force(n, nrows, ncols, data):
    a = Mat(data.draw(st.lists(
        st.lists(st.integers(-n, n), min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows)))
    b = data.draw(st.lists(st.integers(0, n - 1), min_size=nrows,
                           max_size=nrows))

    def solves(x):
        return all((sum(r * v for r, v in zip(row, x)) - bi) % n == 0
                   for row, bi in zip(a.rows, b))

    exists = any(solves(x) for x in itertools.product(range(n), repeat=ncols))
    x = solve_mod(a, b, n)
    assert (x is not None) == exists
    if x is not None:
        assert len(x) == ncols and solves(x)


@PROPERTY
@given(st.integers(1, 2), st.integers(0, 2), st.integers(1, 4), st.data())
def test_kernel_solve_matches_brute_force(ncols, extra, n, data):
    # a nonsingular square block, then extra rows: the kernel is finite and
    # every solution of m·x ≡ c, c in ((1/n)Z/Z)^rows, lies in (1/(n·det))Z
    row = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    top = Mat(data.draw(st.lists(row, min_size=ncols, max_size=ncols)
                        .filter(lambda r: Mat(r).det() != 0)))
    m = Mat(list(top.rows)
            + data.draw(st.lists(row, min_size=extra, max_size=extra)))
    kernel = qz_kernel(m)
    assert isinstance(kernel, FinAb)
    big = n * abs(top.det())
    images = {tuple(sum(a * x for a, x in zip(r, xs)) * n // big % n
                    for r in m.rows)
              for xs in itertools.product(range(big), repeat=ncols)
              if all(sum(a * x for a, x in zip(r, xs)) * n % big == 0
                     for r in m.rows)}
    for b in itertools.product(range(n), repeat=m.nrows):
        c = QV([Fraction(bi, n) for bi in b])
        x = kernel.solve(c)
        assert (x is not None) == (b in images)
        if x is not None:
            assert QV(m.apply(x.coords)) == c


def test_no_private_copies_of_the_helpers():
    banned = {"_gcd", "_lcm", "_is_prime", "_prime_factors", "_mult_order",
              "_order_mod", "_prime_power", "_prime_of", "_is_prime_power",
              "_least_prime_factor", "generating_sequence", "_mat_order",
              "_twist_order", "_is_irreducible", "_coords", "_coord_matrix",
              "_solver", "_gens", "_unit", "_span_table", "_combine",
              "_solve_mod", "_exceptional_stats", "_section_commutator",
              "_int_inverse", "solve_linear_qz", "solve_affine",
              "_c_correction", "_clear_denominators", "_regular_vector",
              "_bichar_value", "sc_coord_matrix", "disconnected_bicharacter",
              "ambient_of", "composite_character_qz", "is_regular",
              "_reduction_rows", "_monomial", "_zero_vec", "_basis_row",
              "_try_descend", "_cyc_json", "_solve_matrix", "_rational_sum",
              "_lift_value", "norm_map", "realize_in_field", "element_order",
              "signed_permutation", "cycle_sign_data", "weyl_order_primes",
              "norm_to_subfield", "subfield_dlog", "from_int", "order_of",
              "beta_correction"}
    # m·x ≡ c over Q/Z is solved by the kernel of m
    banned_classes = {"AffineSolutions", "DisconnectedPairing"}
    phi_n = {"cyclotomic_polynomial", "_division_terms", "_polydiv_exact"}
    found = []
    for path in sorted(pathlib.Path(cuspidor.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        # the cokernel's class table is AdjointModel.cokernel_reps; outside
        # torus.py a cokernel is read only for its group
        group_reads = {id(node.value) for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and node.attr == "group"}
        for node in ast.walk(tree):
            if path.name != "torus.py" and isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "cokernel" \
                    and id(node) not in group_reads:
                found.append(f"{path.name}:{node.lineno} .cokernel()")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name in banned:
                found.append(f"{path.name}:{node.lineno} {node.name}")
            if isinstance(node, ast.ClassDef) and node.name in banned_classes:
                found.append(f"{path.name}:{node.lineno} {node.name}")
            # exactcore's elimination serves det and inverse; a Cyc is
            # reduced by from_root_multiplicities and descends by the
            # Galois average
            if path.name != "exactcore.py" and (
                    isinstance(node, ast.ImportFrom)
                    and any(a.name == "gauss_jordan" for a in node.names)
                    or isinstance(node, ast.Attribute)
                    and node.attr == "gauss_jordan"):
                found.append(f"{path.name}:{node.lineno} gauss_jordan")
            # Phi_n's coefficients serve one division, cyclotomic.power_basis
            if path.name != "cyclotomic.py" and (
                    isinstance(node, ast.ImportFrom)
                    and any(a.name in phi_n for a in node.names)
                    or isinstance(node, ast.Attribute) and node.attr in phi_n
                    or isinstance(node, ast.Name) and node.id in phi_n):
                found.append(f"{path.name}:{node.lineno} Phi_n division")
            # a Weyl or outer inverse goes through RootDatum.inverse
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "to_int" \
                    and isinstance(node.func.value, ast.Call) \
                    and isinstance(node.func.value.func, ast.Attribute) \
                    and node.func.value.func.attr == "inverse":
                found.append(f"{path.name}:{node.lineno} .inverse().to_int()")
    assert found == []


# -- one elimination: determinant and inverse ------------------------------------

def _square(n):
    return st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                    min_size=n, max_size=n).map(Mat)


@PROPERTY
@given(st.integers(1, 5).flatmap(_square))
def test_inverse_exactly_when_det_nonzero(m):
    if m.det() == 0:
        with pytest.raises(ValueError):
            m.inverse()
    else:
        assert m * m.inverse() == Mat.identity(m.nrows)


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(_square(n), _square(n))))
def test_det_is_multiplicative(pair):
    a, b = pair
    assert (a * b).det() == a.det() * b.det()
