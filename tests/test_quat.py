import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from posefusion import quat

from conftest import random_unit_quat


unit_quats = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=4, max_size=4
).map(np.array).filter(lambda q: np.linalg.norm(q) > 1e-2).map(
    lambda q: q / np.linalg.norm(q))


def pure(v):
    """The pure quaternion (0, v) of a 3-vector v."""
    return np.concatenate(([0.0], v))


def finite_difference(fn, x, h=1e-6):
    """Central finite differences of a vector function, column per input."""
    x = np.asarray(x, dtype=float)
    cols = []
    for m in range(len(x)):
        e = np.zeros_like(x)
        e[m] = h
        cols.append((fn(x + e) - fn(x - e)) / (2 * h))
    return np.column_stack(cols)


class TestLogExp:
    def test_log_identity(self):
        assert np.allclose(quat.qlog(np.array([1.0, 0, 0, 0])), np.zeros(3))

    def test_log_quarter_turn(self):
        w = quat.qlog(np.array([0.0, 1.0, 0.0, 0.0]))
        assert np.allclose(w, [np.pi / 2, 0, 0])

    def test_log_rejects_non_unit(self):
        with pytest.raises(ValueError):
            quat.qlog(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_exp_zero(self):
        assert np.allclose(quat.qexp(np.zeros(3)), quat.IDENTITY)

    def test_exp_quarter_turn(self):
        q = quat.qexp(np.array([np.pi / 2, 0, 0]))
        assert np.allclose(q, [0.0, 1.0, 0.0, 0.0], atol=1e-15)

    def test_exp_tiny_matches_taylor_series(self):
        w = np.array([1e-12, -2e-13, 5e-13])
        n = np.linalg.norm(w)
        # 4-term series for cos and sinc at tiny argument
        cos_series = 1 - n**2 / 2 + n**4 / 24 - n**6 / 720
        sinc_series = 1 - n**2 / 6 + n**4 / 120 - n**6 / 5040
        expected = np.concatenate(([cos_series], w * sinc_series))
        assert np.max(np.abs(quat.qexp(w) - expected)) < 1e-15

    def test_log_exp_roundtrip(self, rng):
        for _ in range(200):
            w = rng.normal(size=3)
            w *= rng.uniform(0, np.pi / 2) / np.linalg.norm(w)
            assert np.max(np.abs(quat.qlog(quat.qexp(w)) - w)) < 1e-12

    def test_log_exp_roundtrip_is_accurate_at_every_scale(self, rng):
        # acos(u) loses the angle as u rounds to 1; atan2(|v|, u) does not.
        # |w| = pi/2 is a half-turn, where w and -w are one rotation: left out
        mags = np.geomspace(1e-300, np.pi / 2, 20001, endpoint=False)
        axes = rng.normal(size=(mags.size, 3))
        w = axes * (mags / np.linalg.norm(axes, axis=1))[:, None]
        back = quat.qlog(quat.qexp(w))
        assert np.max(np.linalg.norm(back - w, axis=1) / mags) < 1e-15

    @pytest.mark.parametrize("mag", [1e-9, 1e-160, 1e-300])
    def test_tiny_angles_map_exactly(self, mag):
        # the squares in row_norm underflow: to subnormals at 1e-160, to 0 at 1e-300
        w = mag * np.array([0.6, -0.8, 0.0])
        q = quat.qexp(w)
        assert np.array_equal(q, np.concatenate(([1.0], w)))
        assert np.array_equal(quat.qlog(q), w)

    @given(unit_quats)
    @settings(max_examples=100)
    def test_hemisphere_insensitivity(self, q):
        assert np.array_equal(quat.qlog(quat.canonicalize(q)),
                              quat.qlog(quat.canonicalize(-q)))
        assert np.array_equal(quat.qlog(q), quat.qlog(-q))


class TestProduct:
    def test_identity_element(self, rng):
        q = random_unit_quat(rng)
        assert np.allclose(quat.qmul(q, quat.IDENTITY), q)
        assert np.allclose(quat.qmul(quat.IDENTITY, q), q)

    def test_inverse(self, rng):
        for _ in range(50):
            q = random_unit_quat(rng)
            assert np.allclose(quat.qmul(q, quat.qinv(q)), quat.IDENTITY, atol=1e-15)

    def test_inverse_conjugates(self):
        assert np.allclose(quat.qinv(np.array([0.0, 1, 0, 0])), [0.0, -1, 0, 0])

    def test_matrix_form_oracle(self, rng):
        # A product with a pure quaternion (0, v) is a 4x3 matrix times v.
        for _ in range(100):
            a, v = random_unit_quat(rng), rng.normal(size=3)
            assert np.max(np.abs(quat.qmul(a, pure(v)) - quat.dqmul_left(a) @ v)) < 1e-12
            assert np.max(np.abs(quat.qmul(pure(v), a) - quat.dqmul_right(a) @ v)) < 1e-12

    @given(unit_quats, unit_quats, unit_quats)
    @settings(max_examples=100)
    def test_associativity(self, a, b, c):
        lhs = quat.qmul(quat.qmul(a, b), c)
        rhs = quat.qmul(a, quat.qmul(b, c))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestRotate:
    def test_identity_rotation(self):
        t = np.array([1.0, 2.0, 3.0])
        assert np.allclose(quat.qrotate(quat.IDENTITY, t), t)

    def test_quarter_turn_about_z(self):
        q = quat.qexp(np.array([0, 0, np.pi / 4]))  # 90 degrees about z
        assert np.allclose(quat.qrotate(q, np.array([1.0, 0, 0])), [0, 1, 0], atol=1e-15)

    def test_matrix_oracle(self, rng):
        # the definition: the vector part of q * (0, t) * q^-1
        for _ in range(100):
            q = random_unit_quat(rng)
            t = rng.normal(size=3)
            conjugated = quat.qmul(quat.qmul(q, pure(t)), quat.qinv(q))[..., 1:]
            assert np.max(np.abs(quat.qrotate(q, t) - conjugated)) < 1e-12

    def test_norm_preserved(self, rng):
        for _ in range(100):
            q = random_unit_quat(rng)
            t = rng.normal(size=3)
            assert abs(np.linalg.norm(quat.qrotate(q, t)) - np.linalg.norm(t)) < 1e-12


class TestDerivatives:
    def test_dqmul_identity(self):
        assert np.array_equal(quat.dqmul_left(quat.IDENTITY), np.eye(4)[:, 1:])
        assert np.array_equal(quat.dqmul_right(quat.IDENTITY), np.eye(4)[:, 1:])

    @staticmethod
    def _batch_with_zero_components(rng):
        """A (W, T) batch holding the identity, a pure quaternion and rows
        with zero scalar or vector components."""
        q = rng.normal(size=(3, 4, 4))
        q[0, 0], q[0, 1] = quat.IDENTITY, [0.0, 0.0, 1.0, 0.0]
        q[1, :, 0] = 0.0
        q[2, :, 1:3] = 0.0
        return q / np.linalg.norm(q, axis=-1, keepdims=True)

    def test_dqmul_left_columns_are_products_with_the_pure_basis(self, rng):
        q = self._batch_with_zero_components(rng)
        left = quat.dqmul_left(q)
        assert left.shape == (3, 4, 4, 3)
        for k in range(3):
            assert np.array_equal(left[..., k], quat.qmul(q, pure(np.eye(3)[k])))

    def test_dqmul_right_columns_are_products_with_the_pure_basis(self, rng):
        q = self._batch_with_zero_components(rng)
        right = quat.dqmul_right(q)
        assert right.shape == (3, 4, 4, 3)
        for k in range(3):
            assert np.array_equal(right[..., k], quat.qmul(pure(np.eye(3)[k]), q))

    def test_dqmul_linearity_exact(self, rng):
        a, b = random_unit_quat(rng), random_unit_quat(rng)
        delta = 0.1 * rng.normal(size=3)
        diff = quat.qmul(a, b + pure(delta)) - quat.qmul(a, b)
        assert np.max(np.abs(diff - quat.dqmul_left(a) @ delta)) < 1e-14
        diff = quat.qmul(b + pure(delta), a) - quat.qmul(b, a)
        assert np.max(np.abs(diff - quat.dqmul_right(a) @ delta)) < 1e-14

    def test_dqmul_finite_differences(self, rng):
        for _ in range(100):
            a, b, v = random_unit_quat(rng), random_unit_quat(rng), rng.normal(size=3)
            fd_left = finite_difference(lambda x: quat.qmul(a, b + pure(x)), v)
            fd_right = finite_difference(lambda x: quat.qmul(a + pure(x), b), v)
            assert np.max(np.abs(fd_left - quat.dqmul_left(a))) < 1e-7
            assert np.max(np.abs(fd_right - quat.dqmul_right(b))) < 1e-7


# Leading batch shapes: a single row, a flat batch and a stack of windows.
batch_shapes = st.one_of(st.just(()), st.tuples(st.integers(1, 5)),
                         st.tuples(st.integers(1, 3), st.integers(1, 4)))


@st.composite
def quat_batches(draw, shape):
    """Unit quaternions of the given leading shape; some rows have zero leading parts."""
    raw = draw(hnp.arrays(float, shape + (4,), elements=st.floats(-1.0, 1.0)))
    # zero the first 1-3 components of some rows to exercise canonicalize's tie-break
    zeros = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 3)))
    raw = np.where(np.arange(4) < zeros[..., None], 0.0, raw)
    norm = np.linalg.norm(raw, axis=-1, keepdims=True)
    return np.where(norm > 1e-2, raw / np.where(norm > 1e-2, norm, 1.0), quat.IDENTITY)


ONE_QUAT = {
    "canonicalize": quat.canonicalize, "qlog": quat.qlog, "qinv": quat.qinv,
    "dqmul_left": quat.dqmul_left, "dqmul_right": quat.dqmul_right,
}
QUAT_AND_VECTOR = {"qrotate": quat.qrotate}


class TestBatches:
    """Every batched function equals the single-quaternion call on each row."""

    @staticmethod
    def _rows_match(fn, shape, *batches):
        out = fn(*batches)
        for idx in np.ndindex(*shape):
            single = fn(*(b[idx] for b in batches))
            assert np.array_equal(out[idx], single), (idx, out[idx], single)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_quaternion_functions(self, data):
        shape = data.draw(batch_shapes)
        q = data.draw(quat_batches(shape))
        for fn in ONE_QUAT.values():
            self._rows_match(fn, shape, q)
        self._rows_match(quat.qmul, shape, q, data.draw(quat_batches(shape)))
        vec = data.draw(hnp.arrays(float, shape + (3,), elements=st.floats(-10.0, 10.0)))
        for fn in QUAT_AND_VECTOR.values():
            self._rows_match(fn, shape, q, vec)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_exp_map(self, data):
        shape = data.draw(batch_shapes)
        # include angles where cos |w| and sin|w| / |w| round to 1
        scale = data.draw(st.sampled_from([1e-12, 1e-9, 1e-3, 1.0]))
        w = scale * data.draw(hnp.arrays(float, shape + (3,), elements=st.floats(-1.5, 1.5)))
        self._rows_match(quat.qexp, shape, w)

    def test_canonicalize_zero_scalar_tie_break_on_batches(self):
        q = np.array([[[0.0, -0.6, 0.8, 0.0], [0.0, 0.0, -1.0, 0.0]],
                      [[0.0, 0.0, 0.0, -1.0], [-0.0, 0.6, -0.8, 0.0]]])
        expected = np.array([[[0.0, 0.6, -0.8, 0.0], [0.0, 0.0, 1.0, 0.0]],
                             [[0.0, 0.0, 0.0, 1.0], [-0.0, 0.6, -0.8, 0.0]]])
        assert np.array_equal(quat.canonicalize(q), expected)
        assert np.array_equal(quat.canonicalize(-q), quat.canonicalize(q))

    def test_row_norm_gives_each_row_the_same_bits_alone_and_in_a_stack(self, rng):
        for dim in (3, 4):
            x = rng.normal(size=(2000, dim)) * rng.uniform(0.5, 2.0, size=(2000, 1))
            expected = [quat.row_norm(row) for row in x]
            assert np.array_equal(quat.row_norm(x), expected)
            assert np.array_equal(quat.row_norm(x.reshape(40, 50, dim)).ravel(), expected)
            assert np.allclose(expected, np.linalg.norm(x, axis=-1), rtol=1e-15, atol=0.0)

    def test_check_unit_rejects_any_bad_row(self):
        q = np.tile(quat.IDENTITY, (2, 3, 1))
        quat.check_unit(q)
        for bad in (np.array([1.1, 0.0, 0.0, 0.0]), np.full(4, np.nan)):
            q[1, 2] = bad
            with pytest.raises(ValueError):
                quat.check_unit(q)

    def test_check_unit_message_prints_a_plain_number(self):
        for bad, shown in ((1.1, "1.1"), (np.nan, "nan")):
            with pytest.raises(ValueError) as err:
                quat.check_unit(np.array([[1.0, 0.0, 0.0, 0.0], [bad, 0.0, 0.0, 0.0]]))
            assert str(err.value) == f"quaternion norm {shown} deviates from 1 by more than 1e-06"
