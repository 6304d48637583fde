import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornsim.geometry import (
    Frame,
    Ray,
    UnitVector,
    canonicalize,
    direction_cosines,
    identity_frame,
    normalize,
    orthonormal_frame,
    random_frame,
    random_unit_vector,
    rotate_frame_about_axis,
    tangent_basis,
    unit_vector,
    vector_angle,
)

SQ2 = 1.0 / math.sqrt(2.0)
SQ3 = 1.0 / math.sqrt(3.0)


class TestCanonicalize:
    def test_antipodal_identification(self):
        assert canonicalize((0.0, 0.0, -1.0)).rep == unit_vector(0.0, 0.0, 1.0)

    def test_already_canonical(self):
        assert canonicalize((1.0, 0.0, 0.0)).rep == unit_vector(1.0, 0.0, 0.0)

    def test_sign_flip_of_both_components(self):
        r = canonicalize((-0.6, -0.8, 0.0))
        assert r.rep.x == pytest.approx(0.6, abs=1e-15)
        assert r.rep.y == pytest.approx(0.8, abs=1e-15)
        assert r.rep.z == 0.0

    def test_rejects_non_normalizable(self):
        with pytest.raises(ValueError):
            canonicalize((1.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            canonicalize((0.0, 0.0, 0.0))

    def test_accepts_small_norm_slack(self):
        v = np.array([1.0 + 5e-7, 0.0, 0.0])
        r = canonicalize(v)
        assert abs(float(np.linalg.norm(r.array)) - 1.0) < 1e-12

    def test_tiny_leading_component_is_skipped_for_sign(self):
        r = canonicalize((1e-13, -1.0, 0.0))
        assert r.rep.y > 0

    def test_idempotent_and_antipodal_bulk(self):
        # module invariant: holds for 1e5 random unit vectors
        gen = np.random.default_rng(11)
        g = gen.standard_normal((100_000, 3))
        g /= np.linalg.norm(g, axis=1)[:, None]
        for v in g:
            r = canonicalize(v)
            assert canonicalize(-v) == r
            assert canonicalize(r.array) == r

    @given(
        st.tuples(
            st.floats(-1e3, 1e3, allow_nan=False),
            st.floats(-1e3, 1e3, allow_nan=False),
            st.floats(-1e3, 1e3, allow_nan=False),
        )
    )
    @settings(max_examples=300)
    def test_antipodal_property(self, xyz):
        v = np.array(xyz)
        n = float(np.linalg.norm(v))
        if n < 1e-6:
            return
        v = v / n
        assert canonicalize(v) == canonicalize(-v)


class TestDirectionCosines:
    def test_eigenstate(self):
        c = direction_cosines(canonicalize((1.0, 0.0, 0.0)), identity_frame())
        assert c == (1.0, 0.0, 0.0)

    def test_symmetric_state(self):
        c = direction_cosines(canonicalize((SQ3, SQ3, SQ3)), identity_frame())
        assert all(abs(ci - SQ3) < 1e-15 for ci in c)

    def test_direct_arithmetic(self):
        c = direction_cosines(canonicalize((SQ2, 0.5, 0.5)), identity_frame())
        assert c[0] == pytest.approx(0.70710678118654752, abs=1e-15)
        assert c[1] == pytest.approx(0.5, abs=1e-15)
        assert c[2] == pytest.approx(0.5, abs=1e-15)

    def test_squares_sum_to_one_and_sines_to_two(self):
        from conftest import random_ray_frame_pairs

        for v, frame in random_ray_frame_pairs(seed=5, n=2000):
            c = np.array(direction_cosines(canonicalize(v.array), frame))
            assert abs(float(np.sum(c**2)) - 1.0) < 1e-12
            assert abs(float(np.sum(1.0 - c**2)) - 2.0) < 1e-12


class TestFrames:
    def test_gram_schmidt_forced_to_identity(self):
        f = orthonormal_frame((1, 0, 0), (1, 1, 0), (0, 0, 1))
        assert f == identity_frame()

    def test_huge_rows_are_scaled_before_the_norm(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = orthonormal_frame((1e308, 0, 0), (0, 1e308, 0), (0, 0, -1e308))
        assert f == identity_frame()

    def test_normalize_is_the_plain_quotient_on_ordinary_input(self, rng):
        for v in rng.standard_normal((200, 3)) * 10.0 ** rng.integers(-5, 6, (200, 1)):
            got = normalize(v, "zero")
            assert np.array_equal(got, v / np.linalg.norm(v))
        with pytest.raises(ValueError, match="zero"):
            normalize((1e-13, 0, 0), "zero")

    @pytest.mark.parametrize(
        "vec", [(math.nan, 1, 0), (1, math.nan, 0), (math.inf, 0, 0), (0, 1, -math.inf)]
    )
    def test_normalize_rejects_non_finite_components(self, vec):
        # the position matters to max(): a NaN first wins, a NaN later loses
        with pytest.raises(ValueError, match="^finite$"):
            normalize(vec, "finite")

    def test_frame_rejects_a_nan_axis(self):
        # NaN fails every comparison: a `d > tol` check would let it through
        y, z = canonicalize((0.0, 1.0, 0.0)), canonicalize((0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="^frame axes 0 and 1 not orthogonal: "
                                             r"\|cos\| = nan$"):
            Frame((Ray(UnitVector(math.nan, 0.0, 0.0)), y, z))

    def test_degenerate_triple_rejected(self):
        with pytest.raises(ValueError):
            orthonormal_frame((1, 0, 0), (2, 0, 0), (0, 0, 1))

    def test_frame_validates_orthogonality(self):
        with pytest.raises(ValueError):
            Frame(
                (
                    canonicalize((1.0, 0.0, 0.0)),
                    canonicalize((SQ2, SQ2, 0.0)),
                    canonicalize((0.0, 0.0, 1.0)),
                )
            )

    def test_random_frame_is_orthonormal(self, rng):
        for _ in range(200):
            m = random_frame(rng).matrix
            assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)

    def test_rotate_about_axis_keeps_shared_axis(self, rng):
        for axis in range(3):
            f = random_frame(rng)
            g = rotate_frame_about_axis(f, axis, 0.7)
            assert g.axes[axis] == f.axes[axis]
            m = g.matrix
            assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)

    def test_rotate_about_an_axis_index_out_of_range_is_rejected(self):
        with pytest.raises(ValueError, match=r"^axis_index must be 0, 1 or 2, got 3$"):
            rotate_frame_about_axis(identity_frame(), 3, 0.7)


class TestRandomDirections:
    def test_seed_determinism(self):
        a = random_unit_vector(np.random.default_rng(123))
        b = random_unit_vector(np.random.default_rng(123))
        assert a == b
        fa = random_frame(np.random.default_rng(123))
        fb = random_frame(np.random.default_rng(123))
        assert fa == fb

    def test_component_means_vanish(self):
        # 1e5 draws: each component mean within +-0.01 of zero
        gen = np.random.default_rng(1905)
        draws = np.array([random_unit_vector(gen).array for _ in range(100_000)])
        means = draws.mean(axis=0)
        assert np.all(np.abs(means) < 0.01)
        # and norms are exactly unit
        assert np.allclose(np.linalg.norm(draws, axis=1), 1.0, atol=1e-12)

    def test_draw_is_the_plain_quotient_and_a_zero_draw_is_redrawn(self):
        gen, ref = np.random.default_rng(77), np.random.default_rng(77)
        for _ in range(2000):
            g = ref.standard_normal(3)
            assert random_unit_vector(gen).array.tobytes() == (g / np.linalg.norm(g)).tobytes()

        class Draws:
            rows = iter([(0.0, 0.0, 0.0), (1e-13, 0.0, 0.0), (3.0, 4.0, 0.0)])

            def standard_normal(self, size):
                return np.array(next(self.rows))

        assert random_unit_vector(Draws()).array.tolist() == [0.6, 0.8, 0.0]


def _reference_tangent_basis(v):
    """tangent_basis as it was written with np.cross and np.linalg.norm."""
    e = np.zeros(3)
    e[int(np.argmin(np.abs(v)))] = 1.0
    a = np.cross(v, e)
    a = a / float(np.linalg.norm(a))
    b = np.cross(v, a)
    b = b / float(np.linalg.norm(b))
    return a, b


def test_tangent_basis_keeps_the_rounding_of_np_cross():
    # bit for bit, signed zeros included: the disk kernel's outcomes and the
    # CLI's sweep planes are built on this basis
    gen = np.random.default_rng(258)
    vs = [random_unit_vector(gen).array for _ in range(5_000)]
    for c in [(1, 0, 0), (0, -1, 0), (-0.0, 0, 1), (0.6, -0.0, -0.8), (1, 1, 1),
              (-1, 1, -1), (0.6, 0.8, 0), (0, 0.6, -0.8), (1e-300, 1, 0)]:
        vs.append(normalize(c, "test vector"))
    for v in vs:
        got, want = tangent_basis(v), _reference_tangent_basis(v)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), v


class TestAngles:
    def test_vector_angle_range_and_values(self):
        u = unit_vector(1.0, 0.0, 0.0)
        assert vector_angle(u, u) == 0.0
        assert vector_angle(u, -u) == pytest.approx(math.pi, abs=1e-15)
        assert vector_angle(u, unit_vector(0.0, 1.0, 0.0)) == pytest.approx(
            math.pi / 2, abs=1e-15
        )


def test_shared_arrays_cannot_be_corrupted():
    """A Frame builds its matrix once and hands out that array, so it is
    read-only; a UnitVector or Ray builds its array on each access, so writing
    to one leaves the vector as it was."""
    frame = random_frame(np.random.default_rng(4))
    before = frame.matrix.tolist()
    for a in (frame.matrix, frame.matrix[1], frame.rows[2]):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.5
    assert frame.matrix.tolist() == before
    u = unit_vector(0.6, 0.8, 0.0)
    ray = canonicalize((0.0, -0.6, 0.8))
    for a in (u.array, ray.array, ray.rep.array, frame.axes[2].array):
        a[0] = 0.5
    assert u.array.tolist() == [0.6, 0.8, 0.0]
    assert ray.array.tolist() == [0.0, 0.6, -0.8]
    assert frame.axes[2].array.tolist() == before[2]


def test_dot_and_matmul_round_alike():
    """The rounding contract lets ``a.dot(b)`` stand for ``a @ b`` on 1-D
    float64 operands, and ``m.dot(v)`` for ``m @ v`` with a 3x3 matrix: each
    pair is one BLAS call on the same operands. Checked bit for bit on 20 000
    Gaussian cases, with contiguous rows and strided columns of a 3x3 array."""
    rng = np.random.default_rng(25)
    mats, vecs = rng.standard_normal((20_000, 3, 3)), rng.standard_normal((20_000, 3))
    dots, matmuls = [], []
    for m, v in zip(mats, vecs):
        pairs = ((m[0], m[1]), (m[2], v), (m[:, 0], m[:, 2]), (m[:, 1], v), (v, v))
        dots += [a.dot(b) for a, b in pairs]
        matmuls += [a @ b for a, b in pairs]
        dots += m.dot(v).tolist()
        matmuls += (m @ v).tolist()
    dots, matmuls = np.array(dots), np.array(matmuls)
    assert not m[:, 0].flags.c_contiguous  # the columns are strided views
    assert np.array_equal(dots.view(np.int64), matmuls.view(np.int64))


def test_frame_rows_are_unit_within_1e_14():
    """``orthonormal_frame`` hands its Gram-Schmidt quotients to the sign
    rule as they are, without the division by the norm that ``canonicalize``
    makes when a norm is more than 1e-14 from 1. So every row it builds must
    be that close to unit, with the norm taken as ``canonicalize`` takes it:
    rows at scales 1e-10 to 1e150, near-parallel and near-coplanar triples,
    and ``random_frame``. A rounding bound, not a bit pin: it holds on every
    BLAS kernel."""
    rng = np.random.default_rng(27)
    n = 1000
    g = rng.standard_normal((3, n, 3, 3))
    # each row at its own scale
    triples = list(g[0] * 10.0 ** rng.uniform(-10, 150, (n, 3, 1)))
    # the second row 1e-5 to 1e-2 off the first, or the third that far off
    # the plane of the first two, all rows at one scale
    off = 10.0 ** rng.uniform(-5, -2, (2, n, 1))
    scale = 10.0 ** rng.uniform(-10, 150, (2, n, 1))
    a, b, c = g[1].transpose(1, 0, 2)
    triples += list(np.stack((a, a + off[0] * b, c), axis=1) * scale[0, :, :, None])
    a, b, c = g[2].transpose(1, 0, 2)
    mix = rng.standard_normal((n, 2))
    plane = mix[:, :1] * a + mix[:, 1:] * b
    triples += list(np.stack((a, b, plane + off[1] * c), axis=1) * scale[1, :, :, None])
    frames = [random_frame(rng) for _ in range(n)]
    for t in triples:
        with contextlib.suppress(ValueError):  # a residual below 1e-6
            frames.append(orthonormal_frame(*t))
    assert len(frames) > 3.5 * n
    worst = max(abs(math.sqrt(v.dot(v)) - 1.0)
                for f in frames for v in (axis.rep.array for axis in f.axes))
    assert worst <= 1e-14
