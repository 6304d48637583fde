import contextlib
import functools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import numpy_dot_is_the_chain
from oracles import (
    dot_fma_chain,
    gemv_fma_chain,
    orthonormal_rows_oracle,
    random_frame_oracle,
)

from bornsim import geometry, native
from bornsim.quantum import LABELS
from bornsim.rod import QUANTUM, rod_sample
from bornsim.geometry import (
    COMPONENT_EPS,
    NORM_TOL,
    Frame,
    NotOrthogonalError,
    _canonical,
    _chain_dot,
    _dot,
    _gram_schmidt,
    _random_axes,
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

    def test_equals_the_exact_fma_gemv_replica_on_every_kernel(self, rng):
        # each cosine is the fma chain in term order 1, 0, 2, whatever the
        # BLAS kernel, so the rod tables built on them pin no kernel's bits
        for _ in range(2000):
            ray, frame = canonicalize(random_unit_vector(rng).array), random_frame(rng)
            want = gemv_fma_chain(frame.matrix.tolist(), ray.array.tolist())
            assert direction_cosines(ray, frame) == tuple(min(abs(c), 1.0) for c in want)


class TestFrames:
    def test_gram_schmidt_forced_to_identity(self):
        f = orthonormal_frame((1, 0, 0), (1, 1, 0), (0, 0, 1))
        assert f == identity_frame()

    def test_huge_rows_are_scaled_before_the_norm(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = orthonormal_frame((1e308, 0, 0), (0, 1e308, 0), (0, 0, -1e308))
        assert f == identity_frame()

    def test_normalize_is_the_chain_quotient_on_every_kernel(self, rng):
        for v in rng.standard_normal((200, 3)) * 10.0 ** rng.integers(-5, 6, (200, 1)):
            got = normalize(v, "zero")
            assert np.array_equal(got, v / math.sqrt(dot_fma_chain(v.tolist(), v.tolist())))

    @numpy_dot_is_the_chain
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
        with pytest.raises(ValueError, match="^frame axes 0 and 1 not orthogonal: "
                                             r"\|cos\| = nan$"):
            Frame(((math.nan, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))

    def test_degenerate_triple_rejected(self):
        with pytest.raises(ValueError):
            orthonormal_frame((1, 0, 0), (2, 0, 0), (0, 0, 1))

    @pytest.mark.parametrize("rows", [
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
        ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), [0.0, 0.0, 1.0]),
        ((1.0, 0.0), (0.0, 1.0), (0.0, 0.0, 1.0)),
    ], ids=["list-of-lists", "two-rows", "a-list-row", "2-component-rows"])
    def test_frame_rejects_rows_that_are_not_three_3_tuples(self, rows):
        # a list would leave a frozen frame mutable and unhashable
        with pytest.raises(ValueError, match=r"^frame rows must be three \(x, y, z\) tuples, "
                                             "got " + re.escape(repr(rows)) + "$"):
            Frame(rows)

    def test_frame_rejects_a_row_that_is_not_unit(self):
        # rod_analytic of (0.6, 0.8, 0) would read (1, 0, 0) in this frame,
        # not (0.36, 0.64, 0): the cosine 1.2 is clamped to 1
        with pytest.raises(ValueError, match=r"^frame row 0 \(2\.0, 0\.0, 0\.0\) is not unit: "
                                             r"squared norm 4\.0$"):
            Frame(((2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
        # a squared norm within NORM_TOL of 1 passes, a little further off does not
        inside, outside = math.sqrt(1.0 + 0.9 * NORM_TOL), math.sqrt(1.0 - 1.1 * NORM_TOL)
        Frame(((1.0, 0.0, 0.0), (0.0, inside, 0.0), (0.0, 0.0, 1.0)))
        with pytest.raises(ValueError, match=r"^frame row 2 \(0\.0, 0\.0, 0\.99999\d*\) "
                                             r"is not unit: squared norm 0\.99999"):
            Frame(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, outside)))

    def test_frame_rejects_a_row_that_is_not_canonical(self):
        # it would not equal identity_frame(), though its rays are the same
        with pytest.raises(ValueError, match=r"^frame row 0 \(-1\.0, 0\.0, 0\.0\) is not "
                                             "canonical: its first component beyond "
                                             "COMPONENT_EPS is negative$"):
            Frame(((-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
        # a first component within COMPONENT_EPS of 0 counts as zero: the
        # sign rule reads the second
        tiny = COMPONENT_EPS
        with pytest.raises(ValueError, match=r"^frame row 1 .* is not canonical"):
            Frame(((1.0, tiny, 0.0), (tiny, -1.0, 0.0), (0.0, 0.0, 1.0)))
        e = Frame(((1.0, -tiny, 0.0), (tiny, 1.0, 0.0), (0.0, 0.0, 1.0)))
        assert e.rows[1] == _canonical(*e.rows[1])
        twin = Frame(((1.0, 0.0, -0.0), (-0.0, 1.0, 0.0), (0.0, -0.0, 1.0)))
        assert twin == identity_frame()

    def test_frame_validates_orthogonality(self):
        with pytest.raises(ValueError):
            Frame(((1.0, 0.0, 0.0), (SQ2, SQ2, 0.0), (0.0, 0.0, 1.0)))

    def test_equal_frames_hash_alike_signed_zeros_included(self, rng):
        def frame(rows):
            return Frame(tuple(tuple(row) for row in rows))

        rotated = rotate_frame_about_axis(identity_frame(), 2, 0.7).rows
        for rows in (identity_frame().rows, rotated, random_frame(rng).rows):
            twin = frame([[-v if v == 0.0 else v for v in row] for row in rows])
            e = frame(rows)
            assert e == twin and hash(e) == hash(twin)
            assert hash(e) == hash(e) == hash(e.rows)
        assert hash(frame(rotated)) != hash(identity_frame())

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

    def test_draw_is_the_chain_quotient_on_every_kernel(self):
        gen, ref = np.random.default_rng(77), np.random.default_rng(77)
        for _ in range(2000):
            g = ref.standard_normal(3)
            want = g / math.sqrt(dot_fma_chain(g.tolist(), g.tolist()))
            assert random_unit_vector(gen).array.tobytes() == want.tobytes()

    @numpy_dot_is_the_chain
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
              (-1, 1, -1), (0.6, 0.8, 0), (0, 0.6, -0.8), (1e-300, 1, 0),
              (1, 0.5, -0.5), (0.5, -1, 0.5), (0.0, -0.0, 1)]:
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
    """A Frame, a UnitVector and a Ray build their arrays on each access, so
    writing to one leaves the frame or vector as it was."""
    frame = random_frame(np.random.default_rng(4))
    before = frame.matrix.tolist()
    u = unit_vector(0.6, 0.8, 0.0)
    ray = canonicalize((0.0, -0.6, 0.8))
    for a in (frame.matrix, frame.matrix[1], u.array, ray.array, ray.rep.array,
              frame.axes[2].array):
        a[0] = 0.5
    assert frame.matrix.tolist() == before
    assert [list(row) for row in frame.rows] == before
    assert u.array.tolist() == [0.6, 0.8, 0.0]
    assert ray.array.tolist() == [0.0, 0.6, -0.8]
    assert frame.axes[2].array.tolist() == before[2]


def test_dot_and_matmul_round_alike():
    """The rounding contract lets ``a.dot(b)`` stand for ``a @ b`` on 1-D
    float64 operands: each pair is one BLAS call on the same operands.
    Checked bit for bit on 20 000 Gaussian cases, with contiguous rows and
    strided columns of a 3x3 array."""
    rng = np.random.default_rng(25)
    mats, vecs = rng.standard_normal((20_000, 3, 3)), rng.standard_normal((20_000, 3))
    dots, matmuls = [], []
    for m, v in zip(mats, vecs):
        pairs = ((m[0], m[1]), (m[2], v), (m[:, 0], m[:, 2]), (m[:, 1], v), (v, v))
        dots += [a.dot(b) for a, b in pairs]
        matmuls += [a @ b for a, b in pairs]
    dots, matmuls = np.array(dots), np.array(matmuls)
    assert not m[:, 0].flags.c_contiguous  # the columns are strided views
    assert np.array_equal(dots.view(np.int64), matmuls.view(np.int64))


def test_every_builder_gives_canonical_rows(path):
    """Each builder hands ``Frame`` its rows with the sign rule of ``Ray``
    applied, so a frame's axes, and the state ``rod_sample`` collapses to,
    are the canonical rays of its rows. The inputs have axes whose leading
    component is negative before the sign rule: a negative first row, a
    rotation by more than a right angle, and random frames."""
    rng = np.random.default_rng(34)
    e = random_frame(rng)
    frames = [identity_frame(),
              orthonormal_frame((-1.0, 2.0, 0.5), (0.3, -1.0, 2.0), (-0.0, 0.0, -1.0)),
              *(rotate_frame_about_axis(e, axis, 2.5) for axis in range(3)),
              e, *(random_frame(rng) for _ in range(50))]
    for f in frames:
        assert all(type(row) is tuple and row == _canonical(*row) for row in f.rows), f
        assert f.axes == tuple(canonicalize(row) for row in f.rows)
    p = canonicalize((0.48, -0.6, 0.64))
    for f in frames[:6]:
        for _ in range(20):
            label, state, _ = rod_sample(p, f, QUANTUM, rng)
            assert state == canonicalize(f.rows[LABELS.index(label)])


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
    worst = max(abs(math.sqrt(dot_fma_chain(v, v)) - 1.0) for f in frames for v in f.rows)
    assert worst <= 1e-14


# --- random_frame's two bodies against a replica built on an exact fma ---
#
# Every frame dot is written out as the fused multiply-add chain of
# OpenBLAS's SkylakeX ddot, in C and on Python floats, so these tests hold
# on any BLAS kernel. The replica (``tests/oracles.py``) takes each fma in
# Fraction arithmetic.

_REPLICA_SEEDS = (3, 31, 314, 3141)
_REPLICA_FRAMES = 500  # per seed: 2000 frames


@functools.cache
def _replica(seed: int) -> tuple[bytes, dict]:
    """The replica's frames from ``default_rng(seed)``, and the generator's state after."""
    rng = np.random.default_rng(seed)
    rows = [random_frame_oracle(rng) for _ in range(_REPLICA_FRAMES)]
    return np.array(rows).tobytes(), rng.bit_generator.state


@pytest.mark.parametrize("seed", _REPLICA_SEEDS)
def test_random_frames_equal_the_exact_fma_replica(path, seed):
    rng = np.random.default_rng(seed)
    got = b"".join(random_frame(rng).matrix.tobytes() for _ in range(_REPLICA_FRAMES))
    want, state = _replica(seed)
    assert got == want  # bytes: signed zeros count
    assert rng.bit_generator.state == state  # the same draws, redraws included


class _Scripted:
    """Stands in for a Generator: each ``standard_normal`` call hands out
    the next of the given (3, 3) draws, into ``out`` or as a new array."""

    def __init__(self, draws):
        self.draws = [np.array(d, dtype=float) for d in draws]
        self.taken = 0

    def standard_normal(self, size=None, out=None):
        g = self.draws[self.taken]
        self.taken += 1
        if out is None:
            return g.reshape(size).copy()
        out[...] = g.reshape(out.shape)
        return out


_ORDINARY = [[0.3, -1.2, 0.5], [1.1, 0.4, -0.7], [-0.2, 0.9, 1.3]]


@pytest.mark.parametrize("draws", [
    # every product of the second row's dot with the first axis is -0.0:
    # the chain starts from +0.0, so the projection keeps the row's -0.0
    [[[1.0, 1.0, -0.0], [-0.0, -0.0, 1.0], [1.0, -1.0, 0.0]]],
    [[[-0.0, 2.0, 0.0], [3.0, -0.0, -0.0], [0.0, -0.0, -5.0]]],
    # squares of 2**-601 in the norms: the products below 2**-900
    [[[1.0, 2.0**-600, 0.5], [2.0**-600, -1.0, 2.0**-600], [0.3, 0.2, 1.0]]],
    # near-parallel rows (|cos| > 1 - 1e-6), then a zero row, then a third
    # row within 1e-9 of the plane of the first two: each is drawn again
    [[[1.0, 2.0, 3.0], [1.0, 2.0, 3.0 + 1e-7], [0.0, 1.0, 0.0]],
     [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
     [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1e-9]],
     _ORDINARY],
], ids=["signed-zeros", "signed-zeros-first-axis", "underflow", "redrawn"])
def test_edge_draws_give_the_replica_frame(path, draws):
    rng, reference = _Scripted(draws), _Scripted(draws)
    got = random_frame(rng).matrix.tobytes()
    assert got == np.array(random_frame_oracle(reference)).tobytes()
    assert rng.taken == reference.taken == len(draws)


def _sign_rule_draws():
    """Draws that give an axis whose first component is 0, within
    ``COMPONENT_EPS`` of 0 (the sign rule reads the second), or just beyond
    it, of either sign: the first axis is the first row made unit, and the
    second is the second row off the z axis."""
    eps = COMPONENT_EPS
    for f in (0.0, 1e-13, 0.6e-12, eps, math.nextafter(eps, 1.0), 1.2e-12, 2e-12):
        for s in (f, -f):
            yield [[s, -0.6, 0.8], [0.3, 0.5, 0.7], [-0.2, 0.9, 1.3]]
            yield [[0.0, 0.0, 1.0], [s, -0.6, 0.8], [1.0, 0.2, 0.3]]
            yield [[0.0, 0.0, -1.0], [1.0, 0.0, s], [s, -0.6, 0.8]]


def test_c_and_python_bodies_give_the_same_canonical_rows(monkeypatch):
    """``random_frame``'s two bodies apply the sign rule of ``Ray`` to the
    Gram-Schmidt axes, and hand ``Frame`` the same rows by ``float.hex``:
    on hand-made draws around ``COMPONENT_EPS`` and on 5000 Gaussian ones."""
    lib = native.LIBRARY.load()
    if lib is None:
        pytest.skip("the C library did not load: no C compiler")
    monkeypatch.setattr(native.LIBRARY, "load", lambda: None)  # Python floats only
    gen = np.random.default_rng(35)
    draws = [*_sign_rule_draws(), *gen.standard_normal((5000, 3, 3)).tolist()]
    near = []  # the first components within 3e-12 of 0 before the sign rule
    for g in draws:
        rows = _random_axes(g)
        if rows is None:
            assert lib.random_frame(np.array(g)) is None
            continue
        bits = [[x.hex() for x in row] for row in rows]
        assert [[x.hex() for x in row] for row in lib.random_frame(np.array(g))] == bits
        assert all(type(row) is tuple for row in rows)
        raw = _gram_schmidt(g)
        assert [[x.hex() for x in _canonical(*axis)] for axis in raw] == bits
        near += [x for x, _, _ in raw if abs(x) <= 3e-12]
    # the draws reach the threshold itself, and either side of it
    assert COMPONENT_EPS in map(abs, near)
    assert sum(0.0 < abs(x) <= COMPONENT_EPS for x in near) >= 10
    assert sum(abs(x) > COMPONENT_EPS for x in near) >= 12


_IDENTITY_ROWS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_BAD_ROWS = {
    "not-unit": ((2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    "not-canonical": ((-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    "skew": ((1.0, 0.0, 0.0), (0.6, 0.8, 0.0), (0.0, 0.0, 1.0)),  # unit, canonical
}


@pytest.mark.parametrize("body", ["python", "c"])
@pytest.mark.parametrize("bad", list(_BAD_ROWS))
def test_random_frame_draws_again_only_on_skew_rows(monkeypatch, body, bad):
    """A body whose first rows are not unit or not canonical makes
    ``random_frame`` raise; only ``Frame``'s orthogonality check draws
    again. Each stub body hands out the bad rows first, then the identity
    rows, so a retry returns a frame where it should have raised."""
    handed = iter((_BAD_ROWS[bad], _IDENTITY_ROWS))

    def stub(g):
        return next(handed)

    if body == "python":
        monkeypatch.setattr(native.LIBRARY, "load", lambda: None)
        monkeypatch.setattr(geometry, "_random_axes", stub)
    else:
        stand_in = type("Library", (), {"random_frame": staticmethod(stub)})()
        monkeypatch.setattr(native.LIBRARY, "load", lambda: stand_in)
    rng = np.random.default_rng(36)
    if bad == "skew":
        assert random_frame(rng) == identity_frame()
        return
    with pytest.raises(ValueError, match=f"frame row 0 .* is {bad.replace('-', ' ')}") as err:
        random_frame(rng)
    assert not isinstance(err.value, NotOrthogonalError)
    # the skew rows are the orthogonality check's own error
    with pytest.raises(NotOrthogonalError, match="frame axes 0 and 1 not orthogonal"):
        Frame(_BAD_ROWS["skew"])


@pytest.mark.parametrize("scale", [1.7e308, [[1.0, 1e-310, 1.0], [1e-320, 1.0, 1.0],
                                              [1.0, 1.0, 3e-315]]],
                         ids=["1e308", "subnormal-components"])
def test_orthonormal_frame_on_extreme_scales_equals_the_replica(scale):
    """Rows of magnitude up to 1.7e308, whose squares would overflow
    unscaled, and rows with a subnormal component each, whose products
    fall below 2**-900."""
    rng = np.random.default_rng(30)
    for _ in range(200):
        rows = rng.uniform(-1.0, 1.0, (3, 3)) * np.array(scale)
        want = orthonormal_rows_oracle(rows.tolist())
        assert orthonormal_frame(*rows).matrix.tobytes() == np.array(want).tobytes()


# The dot's two bodies: ``dot`` in the C extension module, which ``_dot``
# calls where the module loads, and ``_chain_dot`` on Python floats, both
# against the replica. The components cover signed zeros, subnormals,
# products below 2**-900 (where TwoProduct's error term could underflow)
# and magnitudes up to 1e99, inside ``_fma``'s contract.
_COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 2.0**-460, -(2.0**-470), 1e99]),
    st.floats(-1e99, 1e99),
    st.floats(-(2.0**-440), 2.0**-440),
)
_VECTORS = st.tuples(_COMPONENTS, _COMPONENTS, _COMPONENTS)


def _native_dot():
    lib = native.LIBRARY.load()
    if lib is None:
        pytest.skip("the C library did not load: no C compiler")
    return lib.dot


@settings(max_examples=400, deadline=None)
@given(u=_VECTORS, v=_VECTORS)
# ordinary components whose chain differs from the sum rounded at each step
@example(u=(0.3, -1.2, 0.5), v=(1.1, 0.4, -0.7))
def test_native_and_python_dots_equal_the_replica(u, v):
    want = dot_fma_chain(u, v).hex()  # hex: signed zeros count
    assert _chain_dot(u, v).hex() == want
    assert _native_dot()(u, v).hex() == want


def test_native_dot_is_the_chain_on_gaussian_vectors():
    """On 3000 pairs of Gaussian 3-vectors, where a dot summed in any other
    order differs from the chain on about a third, and through ``_dot``."""
    dot = _native_dot()
    gen = np.random.default_rng(32)
    for u, v in gen.standard_normal((3000, 2, 3)).tolist():
        want = dot_fma_chain(u, v)
        assert dot(u, v) == _dot(tuple(u), tuple(v)) == _chain_dot(u, v) == want


def test_native_dot_rejects_what_is_not_two_3_vectors():
    dot = _native_dot()
    for args in (((1.0, 2.0), (1.0, 2.0, 3.0)), ((1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0))):
        with pytest.raises(ValueError):
            dot(*args)
    with pytest.raises(TypeError):
        dot((1.0, "2", 3.0), (1.0, 2.0, 3.0))
    with pytest.raises(TypeError):
        dot((1.0, 2.0, 3.0))
