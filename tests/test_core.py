import numpy as np
import pytest
from conftest import random_diag_shifted, random_square, random_symmetric

from factordiff import (
    DEFAULT_TOLERANCES,
    CholeskyFactor,
    LDUTangent,
    LDUTriple,
    NotSymmetric,
    PathSpec,
    QRPair,
    QRTangent,
    ShapeError,
    SingularD,
    ToleranceConfig,
    hs_norm,
    qr_derivative_solve,
    qr_factor,
    split_lower_diag_upper,
    split_skew_upper,
    sym_to_lower,
    track_qr,
    validate_matrix,
)
from factordiff.core import _SHAPES, _Container, _impose, _require_shape
from factordiff.newton import _MAPS


class TestValidateMatrix:
    def test_copies_and_converts(self):
        a = [[1, 2], [3, 4]]
        out = validate_matrix(a)
        assert out.dtype == np.float64
        assert out.shape == (2, 2)

    @pytest.mark.parametrize(
        "bad",
        [
            [[1.0, 2.0]],                      # not square
            [1.0, 2.0],                        # 1-d
            [[np.nan, 0.0], [0.0, 1.0]],       # nan
            [[np.inf, 0.0], [0.0, 1.0]],       # inf
            [],                                # empty
            [["x", "y"], ["z", "w"]],          # non-numeric
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ShapeError):
            validate_matrix(bad)

    @pytest.mark.parametrize(
        "bad, reason",
        [
            (np.array([[1 + 2j, 0.0], [0.0, 1.0]]), "complex entries"),
            ([[10**400]], "int too large"),
            ([["1", "0"], ["0", "1"]], "text entries"),
            (np.array([[b"1"]]), "text entries"),
            ([[True]], "bool entries"),
            (np.array([[np.timedelta64(3, "s")]]), "time entries"),
            (np.array([["2020-01-02"]], dtype="M8[D]"), "time entries"),
            (np.array([[(1.0,)]], dtype=[("x", "f8")]), "non-numeric entries"),
            (np.array([["1", "0"], ["0", "1"]], dtype=object), "non-numeric entries"),
        ],
        ids=[
            "complex", "beyond-float64", "text", "bytes", "bool",
            "timedelta", "datetime", "structured", "object-text",
        ],
    )
    def test_refuses_what_float64_cannot_hold(self, bad, reason):
        # unchecked, a complex input lost its imaginary part with only a
        # ComplexWarning, and a huge integer escaped as OverflowError
        with pytest.raises(ShapeError, match=f"^m is not convertible to a float matrix: {reason}"):
            validate_matrix(bad, "m")
        with pytest.raises(ShapeError, match=f"^a is not convertible to a float matrix: {reason}"):
            qr_factor(bad)

    @pytest.mark.parametrize(
        "build, names",
        [
            (lambda: QRPair(np.eye(2), np.eye(3)), "q and r"),
            (lambda: qr_derivative_solve(np.eye(2), np.eye(3), np.eye(2)), "q, r, e"),
        ],
        ids=["two-inputs", "three-inputs"],
    )
    def test_refuses_mismatched_shapes(self, build, names):
        # each input is a valid square matrix on its own
        with pytest.raises(ShapeError, match=f"^{names} must have matching shapes$"):
            build()

    def test_object_array_of_reals_converts(self):
        # numbers held as objects, a Python int beyond int64 among them
        a = np.array([[1.0, 2**70], [3, 0.5]], dtype=object)
        assert np.array_equal(validate_matrix(a), [[1.0, 2.0**70], [3.0, 0.5]])

    def test_tracker_sample_refuses_complex(self):
        # unchecked, this path tracked the identity with max_residual 0.0
        path = PathSpec(lambda t: np.eye(2) * (1 + 1j * t))
        with pytest.raises(ShapeError, match=r"^a\(0\) is not convertible .*: complex entries"):
            track_qr(path)

    def test_tracker_sample_refuses_bool(self):
        # unchecked, numpy read True as 1.0 and this path tracked the identity
        path = PathSpec(lambda t: np.eye(2, dtype=bool))
        with pytest.raises(ShapeError, match=r"^a\(0\) is not convertible .*: bool entries"):
            track_qr(path)


class TestToleranceConfig:
    def test_defaults(self):
        cfg = ToleranceConfig()
        assert cfg.structural_tol == 1e-12
        assert cfg.singularity_tol == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"structural_tol": -1.0},
            {"singularity_tol": 0.0},
            {"singularity_tol": -1e-3},
            {"structural_tol": float("nan")},
            {"singularity_tol": float("inf")},
            # not real numbers, a bool included although it subclasses int
            {"structural_tol": True, "singularity_tol": True},
            {"structural_tol": "1e-12"},
            {"singularity_tol": None},
            {"structural_tol": 1e-12 + 0j},
            # real, but beyond float range
            {"structural_tol": 10**400},
            {"structural_tol": -(10**400)},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ToleranceConfig(**kwargs)


class TestHsNorm:
    def test_identity(self):
        assert hs_norm(np.eye(2)) == pytest.approx(np.sqrt(2.0), abs=0.0)

    def test_zero(self):
        assert hs_norm(np.zeros((3, 3))) == 0.0

    def test_hand_sum(self):
        assert hs_norm([[3.0, 4.0], [0.0, 0.0]]) == 5.0

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(1, 21))
            q = qr_factor(random_square(rng, n)).q
            m = random_square(rng, n)
            assert abs(hs_norm(q @ m) - hs_norm(m)) <= 1e-13 * (1.0 + hs_norm(m))


class TestSplitSkewUpper:
    def test_zero(self):
        s, t = split_skew_upper(np.zeros((2, 2)))
        assert not s.any() and not t.any()

    def test_hand_example(self):
        s, t = split_skew_upper([[0.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(s, [[0.0, -1.0], [1.0, 0.0]])
        assert np.array_equal(t, [[0.0, 1.0], [0.0, 0.0]])

    def test_upper_triangular_input(self):
        m = np.triu(np.arange(9.0).reshape(3, 3))
        s, t = split_skew_upper(m)
        assert not s.any()
        assert np.array_equal(t, m)

    def test_structural_exactness(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            m = random_square(rng, n)
            s, t = split_skew_upper(m)
            # skew part is exactly skew, upper part has exactly zero lower triangle
            assert np.array_equal(s, -s.T)
            assert not np.tril(t, -1).any()
            # diagonal and lower triangle of s + t reproduce m bit for bit;
            # each upper entry sees one IEEE addition, so one ulp there
            assert np.array_equal(np.tril(s + t), np.tril(m))
            assert hs_norm(s + t - m) <= 1e-15 * (1.0 + hs_norm(m))


class TestSymToLower:
    def test_diagonal_halving(self):
        assert np.array_equal(sym_to_lower(2.0 * np.eye(2)), np.eye(2))

    def test_hand_example(self):
        x = sym_to_lower([[2.0, 1.0], [1.0, 2.0]])
        assert np.array_equal(x, [[1.0, 0.0], [1.0, 1.0]])

    def test_zero(self):
        assert not sym_to_lower(np.zeros((3, 3))).any()

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            sym_to_lower([[0.0, 1.0], [0.0, 0.0]])

    def test_reconstruction_exact_for_symmetric(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            m = random_symmetric(rng, n)
            x = sym_to_lower(m)
            assert not np.triu(x, 1).any()
            assert np.array_equal(x + x.T, m)


class TestSplitLowerDiagUpper:
    def test_identity(self):
        ml, md, mu = split_lower_diag_upper(np.eye(3))
        assert not ml.any() and not mu.any()
        assert np.array_equal(md, np.eye(3))

    def test_hand_example(self):
        ml, md, mu = split_lower_diag_upper([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ml, [[0.0, 0.0], [3.0, 0.0]])
        assert np.array_equal(md, [[1.0, 0.0], [0.0, 4.0]])
        assert np.array_equal(mu, [[0.0, 2.0], [0.0, 0.0]])

    def test_strictly_upper_input(self):
        m = np.triu(np.ones((3, 3)), 1)
        ml, md, mu = split_lower_diag_upper(m)
        assert not ml.any() and not md.any()
        assert np.array_equal(mu, m)

    def test_exact_routing(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            m = random_square(rng, n)
            ml, md, mu = split_lower_diag_upper(m)
            assert np.array_equal(ml + md + mu, m)
            assert not np.triu(ml).any()
            assert not np.tril(mu).any()
            assert not (md - np.diag(np.diag(md))).any()


class TestQRPair:
    def test_zeroes_strict_lower_of_r(self):
        pair = QRPair(np.eye(2), [[1.0, 2.0], [1e-20, 3.0]])
        assert pair.r[1, 0] == 0.0

    def test_rejects_non_orthogonal_q(self):
        with pytest.raises(ShapeError):
            QRPair(2.0 * np.eye(2), np.eye(2))

    def test_rejects_negative_diagonal(self):
        with pytest.raises(ShapeError):
            QRPair(np.eye(2), [[1.0, 0.0], [0.0, -1.0]])

    def test_immutable(self):
        pair = QRPair(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            pair.q[0, 0] = 5.0

    def test_product(self):
        pair = QRPair(np.eye(2), [[2.0, 1.0], [0.0, 3.0]])
        assert np.array_equal(pair.product(), [[2.0, 1.0], [0.0, 3.0]])


class TestCholeskyFactor:
    def test_zeroes_strict_upper(self):
        fac = CholeskyFactor([[1.0, 7.0], [2.0, 3.0]])
        assert fac.l[0, 1] == 0.0

    def test_rejects_negative_diagonal(self):
        with pytest.raises(ShapeError):
            CholeskyFactor([[-1.0, 0.0], [0.0, 1.0]])


class TestLDUTriple:
    def test_forces_unit_diagonals_and_patterns(self):
        trip = LDUTriple(
            [[5.0, 9.0], [2.0, 5.0]],
            [[3.0, 9.0], [9.0, 4.0]],
            [[5.0, 7.0], [9.0, 5.0]],
        )
        assert np.array_equal(np.diag(trip.l), [1.0, 1.0])
        assert np.array_equal(np.diag(trip.u), [1.0, 1.0])
        assert trip.l[0, 1] == 0.0 and trip.u[1, 0] == 0.0
        assert trip.d[0, 1] == 0.0 and trip.d[1, 0] == 0.0

    def test_rejects_singular_d(self):
        with pytest.raises(SingularD):
            LDUTriple(np.eye(2), [[1.0, 0.0], [0.0, 0.0]], np.eye(2))


class TestQRTangent:
    def test_accepts_skew_and_zeroes_v(self):
        u = np.array([[0.0, -1.0], [1.0, 0.0]])
        tan = QRTangent(u, [[1.0, 2.0], [1e-30, 3.0]], np.eye(2))
        assert tan.v[1, 0] == 0.0

    def test_rejects_non_skew(self):
        with pytest.raises(ShapeError):
            QRTangent(np.eye(2), np.zeros((2, 2)), np.eye(2))


class TestLDUTangent:
    def test_imposes_patterns(self):
        tan = LDUTangent(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)))
        assert np.array_equal(tan.a, [[0.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(tan.s, np.eye(2))
        assert np.array_equal(tan.b, [[0.0, 1.0], [0.0, 0.0]])


# The projections the containers applied before they imposed structure in
# place, kept as the oracle for _SHAPES.
ORACLE = {
    "square": lambda m: m,
    "upper triangular": np.triu,
    "lower triangular": np.tril,
    "strictly upper triangular": lambda m: np.triu(m, 1),
    "strictly lower triangular": lambda m: np.tril(m, -1),
    "diagonal": lambda m: np.diag(np.diag(m)),
    "unit upper triangular": lambda m: np.triu(m, 1) + np.eye(len(m)),
    "unit lower triangular": lambda m: np.tril(m, -1) + np.eye(len(m)),
}
SHAPE_SIZES = [1, 2, 5, 33]
ULP_OFF_ONE = (np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0))


def planted(rng, n):
    """Random entries with -0.0 planted in about a fifth of them, and a
    diagonal of exact ones, ones one ulp off and -0.0."""
    m = rng.standard_normal((n, n))
    m[rng.random((n, n)) < 0.2] = -0.0
    np.fill_diagonal(m, rng.choice([1.0, *ULP_OFF_ONE, -0.0], n))
    return m


def planted_containers(rng, n):
    """Planted parts for each of the five containers, with the numeric
    properties their constructors test."""
    q = qr_factor(rng.standard_normal((n, n)) + 3.0 * np.eye(n)).q
    d = planted(rng, n)
    np.fill_diagonal(d, 2.0)
    # -0.0 everywhere keeps base_q^T u exactly zero, hence skew
    u = np.full((n, n), -0.0)
    return [
        (QRPair, (q, planted(rng, n))),
        (CholeskyFactor, (planted(rng, n),)),
        (LDUTriple, (planted(rng, n), d, planted(rng, n))),
        (QRTangent, (u, planted(rng, n), q)),
        (LDUTangent, (planted(rng, n), planted(rng, n), planted(rng, n))),
    ]


class TestShapeStructure:
    def test_table_names_every_oracle_shape(self):
        assert set(_SHAPES) == set(ORACLE)

    @pytest.mark.parametrize("shape", sorted(ORACLE))
    @pytest.mark.parametrize("n", SHAPE_SIZES)
    def test_impose_matches_the_projection(self, shape, n):
        rng = np.random.default_rng([151, n])
        for _ in range(10):
            m = planted(rng, n)
            assert _impose(m.copy(), shape).tobytes() == ORACLE[shape](m).tobytes()

    @pytest.mark.parametrize("n", SHAPE_SIZES)
    def test_containers_store_the_projection(self, n):
        rng = np.random.default_rng([157, n])
        for cls, parts in planted_containers(rng, n):
            c = cls(*parts)
            for name, shape, part in zip(c.__slots__, c._shapes, parts):
                stored = getattr(c, name)
                assert stored.tobytes() == ORACLE[shape](part).tobytes()
                assert not stored.flags.writeable
                assert not np.shares_memory(stored, part)

    @pytest.mark.parametrize("n", SHAPE_SIZES)
    def test_own_stores_what_the_constructor_stores(self, n):
        # _own keeps the arrays it is given, imposed in place and frozen
        rng = np.random.default_rng([167, n])
        for cls, parts in planted_containers(rng, n):
            public = cls(*parts)
            mine = [p.copy() for p in parts]
            owned = cls._own(*mine)
            for name, part in zip(cls.__slots__, mine):
                stored = getattr(owned, name)
                assert stored is part
                assert stored.tobytes() == getattr(public, name).tobytes()
                assert not stored.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_own_refuses_a_non_finite_slot(self, bad):
        # the tracker halves a step on this ShapeError
        rng = np.random.default_rng(171)
        for cls, parts in planted_containers(rng, 5):
            for k, name in enumerate(cls.__slots__):
                spoiled = [p.copy() for p in parts]
                spoiled[k][k, 4 - k] = bad
                with pytest.raises(ShapeError, match=f"^{name} contains non-finite"):
                    cls._own(*spoiled)

    @pytest.mark.parametrize("shape", sorted(ORACLE))
    @pytest.mark.parametrize("n", SHAPE_SIZES)
    def test_require_shape_refuses_exactly_what_the_projection_moves(self, shape, n):
        rng = np.random.default_rng([163, n])
        for _ in range(20):
            m = ORACLE[shape](planted(rng, n))
            i, j = rng.integers(0, n, 2)
            variants = [m, planted(rng, n)]
            for value in (-0.0, 0.0, 1.0, *ULP_OFF_ONE, 0.5):
                v = m.copy()
                v[i, j] = value
                variants.append(v)
            for v in variants:
                moved = not np.array_equal(ORACLE[shape](v), v)
                try:
                    _require_shape(v, "m", shape)
                except ShapeError:
                    assert moved
                else:
                    assert not moved


@pytest.mark.parametrize("n", [1, 5, 33, 128])
@pytest.mark.parametrize("kind", sorted(_MAPS))
def test_built_containers_pass_the_public_constructor(kind, n):
    """Every tangent a derivative solve returns and every container a
    corrector returns after a step, both built by _own, is accepted by the
    public constructor, which stores the same bytes."""
    m = _MAPS[kind]
    rng = np.random.default_rng([181, n])
    if m.symmetric:
        g = random_square(rng, n)
        a, e = g @ g.T / n + np.eye(n), random_symmetric(rng, n)
    else:
        a, e = random_diag_shifted(rng, n), random_square(rng, n)
    tan = m.solve(*m.parts(m.factor(a, DEFAULT_TOLERANCES)), e, DEFAULT_TOLERANCES)
    guess = m.factor(a + 1e-7 * e, DEFAULT_TOLERANCES)
    corrected, iters = m.correct(a, guess, DEFAULT_TOLERANCES)
    assert iters >= 1
    for c in (tan, corrected):
        if isinstance(c, _Container):  # the Cholesky tangent is an array
            again = type(c)(*(getattr(c, name) for name in c.__slots__))
            for name in c.__slots__:
                assert getattr(again, name).tobytes() == getattr(c, name).tobytes()
