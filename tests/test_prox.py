import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from sparsemsvm.evaluate import count_nonzero_groups
from sparsemsvm.model import BlockStructure, ModelVector, RegularizerSpec
from sparsemsvm.prox import (_abs_row_sums, _linf_prox_rows, dual_norm,
                             project_epigraph_max_rows, project_halfspace_sum,
                             project_l1_ball_rows, project_simplex_rows,
                             prox_regularizer_aug, regularizer_value)
from test_screen import SCREENED, _shuffled_groups, _unit_columns

finite_vec = lambda n_max: hnp.arrays(
    np.float64, st.integers(1, n_max),
    elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False))


# ---------------------------------------------------------------------------
# simplex

class TestSimplex:
    def test_spec_cases(self):
        np.testing.assert_allclose(project_simplex_rows([3.3, 3.3, 3.3], 1.0)[0],
                                   [1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_allclose(project_simplex_rows([1.0, 0.0, 0.0], 1.0)[0],
                                   [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(project_simplex_rows([0.5, 0.5, 2.0], 1.0)[0],
                                   [0.0, 0.0, 1.0], atol=1e-15)

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(300):
            K = int(rng.integers(1, 9))
            u = rng.uniform(-5, 5, K)
            radius = rng.uniform(0.1, 4.0)
            got = project_simplex_rows(u, radius)[0]
            want = oracles.simplex_projection_enum(u, radius)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            project_simplex_rows([1.0], 0.0)

    @given(finite_vec(8), st.floats(0.01, 10))
    @settings(max_examples=200, deadline=None)
    def test_feasibility_and_idempotence(self, u, radius):
        v = project_simplex_rows(u, radius)[0]
        assert np.all(v >= 0)
        assert abs(v.sum() - radius) <= 1e-10
        np.testing.assert_allclose(project_simplex_rows(v, radius)[0], v, atol=1e-10)

    def test_rowwise_matches_single(self, rng):
        # each row of a batch equals the one-row call
        U = rng.standard_normal((40, 5))
        rows = project_simplex_rows(U, 2.0)
        for i in range(U.shape[0]):
            np.testing.assert_array_equal(rows[i], project_simplex_rows(U[i], 2.0)[0])


# ---------------------------------------------------------------------------
# l1 ball

class TestL1Ball:
    def test_spec_cases(self):
        np.testing.assert_array_equal(project_l1_ball_rows(np.array([0.2, -0.1]), 1.0)[0],
                                      [0.2, -0.1])
        np.testing.assert_allclose(project_l1_ball_rows(np.array([2.0, 1.0]), 1.0)[0],
                                   [1.0, 0.0], atol=1e-15)
        a = 0.8
        np.testing.assert_allclose(project_l1_ball_rows(np.array([a, a]), a)[0],
                                   [a / 2, a / 2])

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 9))
            v = rng.uniform(-5, 5, n)
            radius = rng.uniform(0.1, 4.0)
            got = project_l1_ball_rows(v, radius)[0]
            want = oracles.l1ball_projection_enum(v, radius)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            project_l1_ball_rows(np.array([1.0]), -1.0)

    def test_rowwise_matches_single(self, rng):
        # a batch mixing rows inside and outside the ball equals the
        # one-row calls
        V = rng.standard_normal((40, 5)) * rng.uniform(0.1, 2.0, (40, 1))
        rows = project_l1_ball_rows(V, 2.0)
        inside = np.abs(V).sum(axis=1) <= 2.0
        assert inside.any() and not inside.all()
        np.testing.assert_array_equal(rows[inside], V[inside])
        for i in range(V.shape[0]):
            np.testing.assert_array_equal(rows[i], project_l1_ball_rows(V[i], 2.0)[0])


# ---------------------------------------------------------------------------
# half-space

class TestHalfspace:
    def test_spec_cases(self):
        np.testing.assert_array_equal(project_halfspace_sum(np.array([0.0, 0.0]), 1.0),
                                      [0.0, 0.0])
        np.testing.assert_array_equal(project_halfspace_sum(np.array([2.0, 2.0]), 2.0),
                                      [1.0, 1.0])

    def test_matches_qp_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 8))
            z = rng.uniform(-4, 4, n)
            bound = rng.uniform(-2, 2)
            got = project_halfspace_sum(z, bound)
            if z.sum() > bound:
                assert got.sum() == pytest.approx(bound, abs=1e-9)
            want = oracles.halfspace_projection_qp(z, bound)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            project_halfspace_sum(np.array([]), 0.0)


# ---------------------------------------------------------------------------
# max-hinge prox

class TestHingeProx:
    # prox of lam * max_k(. + r) at y in the Moreau form of fbpd-reg's dual
    # step: y - P_{S_lam}(y + r)

    def test_spec_case(self):
        y, r = np.array([0.0, 0.0]), np.array([0.0, 1.0])
        out = y - project_simplex_rows(y + r, 1.0)[0]
        np.testing.assert_allclose(out, [0.0, -1.0], atol=1e-15)

    def test_small_scale_is_identity(self, rng):
        y = rng.standard_normal(4)
        r = np.array([0.0, 1.0, 1.0, 1.0])
        out = y - project_simplex_rows(y + r, 1e-8)[0]
        np.testing.assert_allclose(out, y, atol=1e-6)

    def test_prox_inequality(self, rng):
        for _ in range(60):
            K = int(rng.integers(1, 7))
            y = rng.uniform(-3, 3, K)
            r = rng.uniform(0, 2, K)
            lam = rng.uniform(0.2, 3.0)
            p = y - project_simplex_rows(y + r, lam)[0]
            psi = lambda v: lam * np.max(v + r)
            competitors = oracles.competitor_cloud(p, y, rng, 1000)
            assert oracles.prox_violations(p, y, psi, competitors) == 0


# ---------------------------------------------------------------------------
# epigraph projection

class TestEpigraph:
    def test_spec_cases(self):
        y, r = np.array([0.0, 0.0]), np.array([0.0, 1.0])
        (p,), (theta,) = project_epigraph_max_rows(y, r, 2.0)
        np.testing.assert_array_equal(p, [0.0, 0.0])
        assert theta == 2.0

        (p,), (theta,) = project_epigraph_max_rows(np.array([3.0]), np.array([0.0]), 1.0)
        np.testing.assert_allclose(p, [2.0])
        assert theta == pytest.approx(2.0)

        (p,), (theta,) = project_epigraph_max_rows(y, r, -1.0)
        np.testing.assert_allclose(p, [0.0, -1.0], atol=1e-14)
        assert theta == pytest.approx(0.0, abs=1e-14)

    def test_matches_both_oracles(self, rng):
        for _ in range(300):
            K = int(rng.integers(1, 9))
            y = rng.uniform(-4, 4, K)
            r = rng.uniform(0, 2, K)
            zeta = rng.uniform(-4, 4)
            (p,), (theta,) = project_epigraph_max_rows(y, r, zeta)
            p1, t1 = oracles.epigraph_projection_exhaustive(y, r, zeta)
            np.testing.assert_allclose(p, p1, atol=1e-9)
            assert theta == pytest.approx(t1, abs=1e-9)
            p2, t2 = oracles.epigraph_projection_opt(y, r, zeta)
            np.testing.assert_allclose(p, p2, atol=1e-5)

    def test_membership_and_idempotence(self, rng):
        for _ in range(200):
            K = int(rng.integers(1, 7))
            y = rng.uniform(-4, 4, K)
            r = rng.uniform(0, 2, K)
            zeta = rng.uniform(-4, 4)
            (p,), (theta,) = project_epigraph_max_rows(y, r, zeta)
            assert np.max(p + r) <= theta + 1e-12
            (p2,), (t2,) = project_epigraph_max_rows(p, r, theta)
            np.testing.assert_allclose(p2, p, atol=1e-10)
            assert t2 == pytest.approx(theta, abs=1e-10)
            inside = np.max(y + r) <= zeta
            unchanged = np.array_equal(p, y) and theta == zeta
            assert inside == unchanged

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_epigraph_max_rows(np.array([0.0]), np.array([0.0]), np.inf)
        with pytest.raises(ValueError):
            project_epigraph_max_rows(np.array([np.nan]), np.array([0.0]), 0.0)

    @given(hnp.arrays(np.float64, st.integers(1, 6),
                      elements=st.floats(-20, 20, allow_nan=False, allow_infinity=False)),
           st.floats(-20, 20))
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_membership_with_ties(self, y, zeta):
        # repeated values stress the sorted crossing search
        r = np.ones_like(y)
        r[0] = 0.0
        y = np.round(y, 1)  # force ties
        (p,), (theta,) = project_epigraph_max_rows(y, r, zeta)
        assert np.isfinite(theta)
        assert np.max(p + r) <= theta + 1e-9
        want_p, want_t = oracles.epigraph_projection_exhaustive(y, r, zeta)
        np.testing.assert_allclose(p, want_p, atol=1e-8)
        assert theta == pytest.approx(want_t, abs=1e-8)

    def test_a_row_one_ulp_above_its_height(self):
        # (height + max) / 2 rounds to the max, so no index crosses: the
        # threshold is the height, not the mean of the whole row; the exact
        # one lies between the two floats
        zeta = np.nextafter(1.0, 0.0)
        y = np.array([1.0, -100.0, -100.0])
        (p,), (theta,) = project_epigraph_max_rows(y, np.zeros(3), zeta)
        assert zeta <= theta <= 1.0
        np.testing.assert_allclose(p, y, rtol=0, atol=np.spacing(1.0))

    def test_rowwise_matches_single(self, rng):
        # each row of a batch equals the one-row call
        Y = rng.standard_normal((30, 4))
        R = rng.uniform(0, 2, (30, 4))
        zetas = rng.standard_normal(30)
        P, thetas = project_epigraph_max_rows(Y, R, zetas)
        for i in range(30):
            (p,), (t,) = project_epigraph_max_rows(Y[i], R[i], zetas[i])
            np.testing.assert_array_equal(P[i], p)
            assert thetas[i] == t


# ---------------------------------------------------------------------------
# the threshold kernel of both projections, bit for bit against plain code

def _last_crossings(s, thetas):
    """Each row's last j with s_j > thetas_j, or -1, by a loop over rows."""
    last = np.full(s.shape[0], -1)
    for i in range(s.shape[0]):
        crossing = np.flatnonzero(s[i] > thetas[i])
        if crossing.size:
            last[i] = crossing[-1]
    return last


def _plain_simplex(U, radius):
    L, K = U.shape
    s = np.sort(U, axis=1)[:, ::-1]
    thetas = (np.cumsum(s, axis=1) - radius) / np.arange(1, K + 1)
    last = _last_crossings(s, thetas)
    theta = thetas[np.arange(L), np.where(last >= 0, last, K - 1)]
    return np.maximum(U - theta[:, None], 0.0)


def _plain_epigraph(Y, R, heights):
    """The projection and its heights; a row inside the epigraph, or
    without a crossing, keeps its height."""
    L, K = Y.shape
    s = np.sort(Y + R, axis=1)[:, ::-1]
    thetas = (np.cumsum(s, axis=1) + heights[:, None]) / np.arange(2, K + 2)
    last = _last_crossings(s, thetas)
    inside = s[:, 0] <= heights
    crossed = (last >= 0) & ~inside
    theta = heights.copy()
    theta[crossed] = thetas[crossed, last[crossed]]
    P = np.where(inside[:, None], Y, np.minimum(Y, theta[:, None] - R))
    return P, theta


# ties, signed zeros and subnormals next to ordinary values
ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 5e-324, -5e-324]),
                  st.floats(-10, 10))
NORMAL_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]),
                         st.floats(-10, 10, allow_subnormal=False))


@st.composite
def epigraph_rows(draw, entry=ENTRY):
    """(Y, R, heights, adjacent) with L up to 6 rows of K = 1 to 10
    entries. Each height is drawn, or set to its row's maximum of y + r
    (inside), or to the float below that maximum (`adjacent`), where a row
    often has no crossing."""
    L, K = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    Y = draw(hnp.arrays(np.float64, (L, K), elements=entry))
    R = draw(hnp.arrays(np.float64, (L, K), elements=st.sampled_from([0.0, 0.5, 1.0])))
    top = (Y + R).max(axis=1)
    kinds = draw(st.lists(st.sampled_from(["drawn", "inside", "adjacent"]), min_size=L, max_size=L))
    heights = np.array([draw(entry) if kind == "drawn" else t if kind == "inside"
                        else np.nextafter(t, -np.inf) for kind, t in zip(kinds, top)])
    return Y, R, heights, np.array(kinds) == "adjacent"


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(epigraph_rows())
@example((np.array([[1.0, -100.0, -100.0]]), np.zeros((1, 3)),
          np.array([np.nextafter(1.0, 0.0)]), np.array([True])))  # no crossing
@example((np.array([[0.0, -0.0], [-0.0, 5e-324]]), np.zeros((2, 2)),
          np.array([-0.0, 0.0]), np.array([False, False])))
@settings(max_examples=500, deadline=None)
def test_epigraph_keeps_the_bits_of_plain_code(rows):
    Y, R, heights, _ = rows
    P, theta = project_epigraph_max_rows(Y, R, heights)
    want_P, want_theta = _plain_epigraph(Y, R, heights)
    assert _same_bits(P, want_P) and _same_bits(theta, want_theta)


def _interval_crossings(Y, R, heights):
    """The candidate heights of `_ref_epigraph` (ascending s, one more
    entry above the height per column) and which of them its interval
    test accepts."""
    L, K = Y.shape
    nu = np.sort(Y + R, axis=1)
    suffix = np.zeros((L, K + 1))
    suffix[:, :K] = np.cumsum(nu[:, ::-1], axis=1)[:, ::-1]
    thetas = (heights[:, None] + suffix) / (K - np.arange(1, K + 2) + 2.0)
    lower = np.concatenate([np.full((L, 1), -np.inf), nu], axis=1)
    upper = np.concatenate([nu, np.full((L, 1), np.inf)], axis=1)
    return thetas, (lower < thetas) & (thetas <= upper)


def _exact_threshold(s, height):
    """The exact height (height + s_1 + ... + s_j) / (j + 1) of the
    projection of a row outside the epigraph, for the floats s = y + r in
    descending order and the first j whose height is at least s_{j+1}."""
    s = sorted(map(Fraction, s), reverse=True)
    total = Fraction(height)
    for j, top in enumerate(s, start=1):
        total += top
        theta = total / (j + 1)
        if j == len(s) or theta >= s[j]:
            return theta


@given(epigraph_rows(NORMAL_ENTRY))
# two crossings pass the interval test: the mean of all six entries rounds
# onto the smallest of them, and the exact height takes the largest alone
@example((np.full((1, 6), -2.67047712e-16), np.array([[1.0, 0.5, 0.5, 0.5, 0.5, 0.5]]),
          np.array([0.0]), np.array([False])))
# the reference rounds height + 2.5 to 2.5 and returns 0.5; the projection
# returns the float below, the one nearest the exact (2.5 - 2^-52) / 5
@example((np.zeros((1, 4)), np.array([[1.0, 0.5, 0.5, 0.5]]),
          np.array([-2.0 ** -52]), np.array([False])))
@settings(max_examples=500, deadline=None)
def test_epigraph_matches_the_iteration_reference(rows):
    # the iteration tests' reference picks the crossing by its interval
    # test, which rounds alike but for a height within rounding of the
    # row's maximum: there the exact threshold lies within an ulp of both,
    # and the two tests may pick neighbouring floats (or crossings), as
    # they may where the means of subnormals round to a few values. Where
    # rounding lets the interval test accept more than one crossing, the
    # reference takes the first, and the projection must take one of them.
    # Any other row where the two differ is the reference's rounding: the
    # projection's height must then lie within an ulp of the exact one
    from test_iteration import _ref_epigraph

    Y, R, heights, adjacent = rows
    P, theta = project_epigraph_max_rows(Y, R, heights)
    ref_P, ref_theta = _ref_epigraph(Y, R, heights)
    thetas, accepted = _interval_crossings(Y, R, heights)
    inside = (Y + R).max(axis=1) <= heights
    several = (accepted.sum(axis=1) > 1) & ~inside & ~adjacent
    keep = ~adjacent & ~several
    for i in np.flatnonzero(keep):
        if not (_same_bits(P[i], ref_P[i]) and _same_bits(theta[i], ref_theta[i])):
            assert not inside[i]
            exact = _exact_threshold(Y[i] + R[i], heights[i])
            assert abs(Fraction(theta[i]) - exact) <= Fraction(np.spacing(abs(theta[i])))
            assert _same_bits(P[i], np.minimum(Y[i], theta[i] - R[i]))
    ulps = 2 * np.spacing(np.abs(heights))
    assert np.all(np.abs(theta - ref_theta)[adjacent] <= ulps[adjacent])
    for i in np.flatnonzero(several):
        assert theta[i] in thetas[i, accepted[i]]
        assert _same_bits(P[i], np.minimum(Y[i], theta[i] - R[i]))


@given(st.integers(1, 6).flatmap(lambda L: st.integers(1, 10).flatmap(
    lambda K: hnp.arrays(np.float64, (L, K), elements=ENTRY))),
       st.sampled_from([1e-3, 0.5, 1.0, 3.0]))
@settings(max_examples=500, deadline=None)
def test_simplex_keeps_the_bits_of_plain_code(U, radius):
    assert _same_bits(project_simplex_rows(U, radius), _plain_simplex(U, radius))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["Y", "heights"])
def test_epigraph_rejects_any_non_finite_entry_without_a_warning(rng, bad, where):
    L, K = 4, 3
    for i in range(L * K if where == "Y" else L):
        Y, R, heights = rng.standard_normal((L, K)), rng.uniform(0, 1, (L, K)), rng.standard_normal(L)
        (Y if where == "Y" else heights).reshape(-1)[i] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="needs finite inputs"):
                project_epigraph_max_rows(Y, R, heights)


@pytest.mark.parametrize("y, height", [([np.inf, -np.inf, 0.0], 0.0),
                                       ([np.inf, 1.0, 0.0], -np.inf),
                                       ([np.nan, np.inf, -np.inf], np.inf)])
def test_epigraph_rejects_opposite_infinities_without_a_warning(y, height):
    # their sum is a nan, made quietly before the entries are tested
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="needs finite inputs"):
            project_epigraph_max_rows(np.array([y]), np.zeros((1, 3)), np.array([height]))


def test_epigraph_projects_a_finite_row_whose_sums_overflow():
    Y = np.full((2, 3), 1e308)
    heights = np.array([0.0, 1e308])
    with np.errstate(over="ignore"):
        P, theta = project_epigraph_max_rows(Y, np.zeros((2, 3)), heights)
    assert P.shape == (2, 3) and theta.shape == (2,)


# ---------------------------------------------------------------------------
# 1-Lipschitz property of all projections

def test_projections_are_nonexpansive(rng):
    for _ in range(100):
        K = int(rng.integers(1, 7))
        a, b = rng.uniform(-5, 5, K), rng.uniform(-5, 5, K)
        lam = rng.uniform(0.2, 3.0)
        assert (np.linalg.norm(project_simplex_rows(a, lam) - project_simplex_rows(b, lam))
                <= np.linalg.norm(a - b) + 1e-12)
        assert (np.linalg.norm(project_l1_ball_rows(a, lam) - project_l1_ball_rows(b, lam))
                <= np.linalg.norm(a - b) + 1e-12)
        assert (np.linalg.norm(project_halfspace_sum(a, lam) - project_halfspace_sum(b, lam))
                <= np.linalg.norm(a - b) + 1e-12)
        r = rng.uniform(0, 2, K)
        za, zb = rng.uniform(-3, 3, 2)
        (pa,), (ta,) = project_epigraph_max_rows(a, r, za)
        (pb,), (tb,) = project_epigraph_max_rows(b, r, zb)
        dist_in = np.sqrt(np.sum((a - b) ** 2) + (za - zb) ** 2)
        dist_out = np.sqrt(np.sum((pa - pb) ** 2) + (ta - tb) ** 2)
        assert dist_out <= dist_in + 1e-12


# ---------------------------------------------------------------------------
# regularizer prox

def _model(weights):
    W = np.asarray(weights, dtype=float)
    return ModelVector(W, np.zeros(W.shape[0]))


def _permuted_blocks(rng, M, mode, max_groups=8):
    """A random partition of a random permutation of the M features."""
    n_cuts = min(M - 1, int(rng.integers(1, max_groups)))
    cuts = np.sort(rng.choice(np.arange(1, M), size=n_cuts, replace=False))
    return BlockStructure(tuple(np.split(rng.permutation(M), cuts)), mode=mode)


# ---------------------------------------------------------------------------
# per-group reference: one group at a time, no layout

def _reference_rows(W, blocks):
    """(group index, class or None, row) for every group row, in the order
    the prox batches them: class-major for per-class groups, one row over
    all classes for cross-class groups."""
    if blocks.mode == "per-class":
        for k in range(W.shape[0]):
            for i, g in enumerate(blocks.groups):
                yield i, k, W[k, g]
    else:
        for i, g in enumerate(blocks.groups):
            yield i, None, W[:, g].ravel()


def _reference_prox(W, kind, blocks, step):
    out = W.copy()
    for i, k, w in _reference_rows(W, blocks):
        if kind == "l12":
            norm = np.sqrt(np.sum(w * w))
            new = w * max(1.0 - (step / norm if norm > 0 else 0.0), 0.0)
        else:  # Moreau: prox of step*||.||_inf is w - P_{l1 ball radius step}(w)
            new = w - project_l1_ball_rows(w, step)[0]
        g = blocks.groups[i]
        if k is None:
            out[:, g] = new.reshape(W.shape[0], g.size)
        else:
            out[k, g] = new
    return out


def _reference_value(W, kind, blocks):
    # per-group values summed per group size, sizes in order of first
    # appearance: the summation order of regularizer_value (floating-point
    # addition is not associative, so bit-equality needs the same order)
    by_size = {}
    for _, _, w in _reference_rows(W, blocks):
        v = np.sqrt(np.sum(w * w)) if kind == "l12" else np.max(np.abs(w))
        by_size.setdefault(w.size, []).append(v)
    return float(sum(np.sum(vals) for vals in by_size.values()))


def _reference_nonzero_groups(W, blocks, threshold):
    return sum(bool(np.any(np.abs(w) > threshold)) for _, _, w in _reference_rows(W, blocks))


def _three_kinds_of_groups(rng, M, mode):
    sizes = [9, 3, 1, 3, 5, 3, 1, 3, 2, 3, 3, 3, 3, 3]  # M = 45; one size-9 group
    assert sum(sizes) == M
    cuts = np.cumsum(sizes)[:-1]
    return {
        "contiguous-tail": BlockStructure.contiguous(M, 4, mode=mode),
        "permuted": _permuted_blocks(rng, M, mode, max_groups=12),
        "mixed-sizes": BlockStructure(tuple(np.split(rng.permutation(M), cuts)), mode=mode),
    }


@pytest.mark.parametrize("kind", ["l12", "l1inf"])
@pytest.mark.parametrize("mode", ["per-class", "cross-class"])
def test_group_layout_matches_per_group_reference(rng, kind, mode):
    K, M = 3, 45
    for _ in range(10):
        for name, blocks in _three_kinds_of_groups(rng, M, mode).items():
            spec = RegularizerSpec(kind, blocks)
            aug = rng.standard_normal((K, M + 1)) * rng.uniform(0.2, 2.0)
            step = rng.uniform(0.1, 1.5)
            W = aug[:, :-1]
            out = ModelVector.from_augmented(prox_regularizer_aug(aug, spec, step))
            np.testing.assert_array_equal(out.weights, _reference_prox(W, kind, blocks, step),
                                          err_msg=name)
            np.testing.assert_array_equal(out.offsets, aug[:, -1], err_msg=name)
            assert regularizer_value(aug, spec) == _reference_value(W, kind, blocks), name
            assert (regularizer_value(out, spec)
                    == _reference_value(out.weights, kind, blocks)), name
            assert (count_nonzero_groups(out, spec, 1e-5)
                    == _reference_nonzero_groups(out.weights, blocks, 1e-5)), name


def _rows_with_specials(rng, n, s):
    """n rows of s entries over 16 decades, with a few nan, inf and -inf."""
    rows = rng.standard_normal((n, s)) * 10.0 ** rng.integers(-8, 8, (n, s))
    special = rng.random((n, s)) < 0.03
    rows[special] = rng.choice([np.nan, np.inf, -np.inf], int(special.sum()))
    return rows


@pytest.mark.parametrize("s", range(1, 13))
def test_the_class_major_row_sums_match_add_reduce_bit_for_bit(rng, s):
    # rows of fewer than 8 entries are summed down the columns of a
    # transposed copy; longer ones keep numpy's pairwise sums
    rows = _rows_with_specials(rng, 301, s)
    for batch in (rows, rows[::2], rows[:, ::-1], np.asfortranarray(rows)):
        want = np.add.reduce(np.abs(batch), axis=1)
        assert _abs_row_sums(batch).tobytes() == want.tobytes()


@pytest.mark.parametrize("s", [1, 3, 5, 7, 8, 12])
def test_an_l1inf_prox_row_that_is_not_finite_stays_not_finite(rng, s):
    # the divergence guard reads a non-finite iterate from the prox's output
    rows = _rows_with_specials(rng, 301, s)
    with np.errstate(invalid="ignore", over="ignore"):
        out = _linf_prox_rows(rows, 0.5)
    bad = ~np.isfinite(rows).all(axis=1)
    assert bad.any()
    np.testing.assert_array_equal(~np.isfinite(out).all(axis=1), bad)


class TestGroupLayout:
    def test_contiguous_is_identity(self):
        layout = BlockStructure.contiguous(10, 3).layout
        assert layout.perm is None
        assert layout.runs == ((0, 9, 3, 3), (9, 10, 1, 1))

    def test_permuted_partition(self):
        blocks = BlockStructure(([4, 0], [2, 1, 3], [5, 6]))
        perm, runs = blocks.layout
        np.testing.assert_array_equal(perm, [4, 0, 5, 6, 2, 1, 3])
        assert runs == ((0, 4, 2, 2), (4, 7, 3, 1))

    def test_layout_built_once(self, rng):
        blocks = _permuted_blocks(rng, 12, "per-class")
        spec = RegularizerSpec("l1inf", blocks)
        aug = rng.standard_normal((2, 13))
        prox_regularizer_aug(aug, spec, 0.5)
        first = blocks.layout
        prox_regularizer_aug(aug, spec, 0.5)
        assert blocks.layout is first
        assert blocks.layout is blocks.layout


class TestRegularizerProx:
    def test_l1_soft_threshold(self):
        out = prox_regularizer_aug(np.array([[3.0, 0.5, -2.0, 4.0]]), RegularizerSpec("l1"), 1.0)
        np.testing.assert_array_equal(out[:, :-1], [[2.0, 0.0, -1.0]])
        assert out[0, -1] == 4.0  # offsets pass through

    def test_l1_exact_zeros(self, rng):
        aug = rng.uniform(-1, 1, (3, 9))
        out = prox_regularizer_aug(aug, RegularizerSpec("l1"), 1.0)
        assert np.all(out[:, :-1] == 0.0)

    def test_l1inf_spec_case(self):
        blocks = BlockStructure.contiguous(2, 2)
        out = prox_regularizer_aug(np.array([[2.0, 1.0, 0.0]]),
                                   RegularizerSpec("l1inf", blocks), 1.0)
        np.testing.assert_allclose(out[:, :-1], [[1.0, 1.0]])

    def test_l2sq_spec_case(self):
        out = prox_regularizer_aug(np.array([[1.0, 1.0, 7.0]]), RegularizerSpec("l2sq"), 0.5)
        np.testing.assert_array_equal(out[:, :-1], [[0.5, 0.5]])
        assert out[0, -1] == 7.0

    def test_l12_group_kill_and_shrink(self):
        blocks = BlockStructure.contiguous(4, 2)
        out = prox_regularizer_aug(np.array([[3.0, 4.0, 0.1, 0.1, 0.0]]),
                                   RegularizerSpec("l12", blocks), 1.0)
        # first group: norm 5, shrink by (1 - 1/5); second group: norm < 1, killed
        np.testing.assert_allclose(out[0, :2], [3.0 * 0.8, 4.0 * 0.8])
        assert np.all(out[0, 2:4] == 0.0)

    @pytest.mark.parametrize("kind", ["l1", "l12", "l1inf", "l2sq"])
    @pytest.mark.parametrize("mode", ["per-class", "cross-class"])
    def test_prox_inequality_all_branches(self, rng, kind, mode, n_instances=50):
        for i in range(n_instances):
            K, M = int(rng.integers(1, 4)), int(rng.integers(2, 7))
            if i % 2:
                blocks = _permuted_blocks(rng, M, mode)
            else:
                blocks = BlockStructure.contiguous(M, int(rng.integers(1, 4)), mode=mode)
            spec = RegularizerSpec(kind, blocks)
            W = rng.uniform(-3, 3, (K, M))
            step = rng.uniform(0.1, 2.0)
            out = prox_regularizer_aug(_model(W).augmented(), spec, step)[:, :-1]

            def psi(wflat, spec=spec, K=K, M=M, step=step):
                m = _model(wflat.reshape(K, M))
                return step * regularizer_value(m, spec)

            competitors = oracles.competitor_cloud(out.ravel(), W.ravel(), rng, 400)
            assert oracles.prox_violations(out.ravel(), W.ravel(), psi, competitors) == 0

    def test_value_against_direct_recomputation(self, rng):
        for mode in ("per-class", "cross-class"):
            for kind in ("l1", "l12", "l1inf", "l2sq"):
                K, M = 3, 7
                blocks = BlockStructure.contiguous(M, 3, mode=mode)
                spec = RegularizerSpec(kind, blocks)
                aug = rng.standard_normal((K, M + 1))
                got = regularizer_value(ModelVector.from_augmented(aug), spec)
                want = oracles.reg_value_direct(
                    aug, kind, groups=[tuple(g) for g in blocks.groups], mode=mode)
                assert got == pytest.approx(want, rel=1e-12)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            prox_regularizer_aug(np.array([[1.0, 0.0]]), RegularizerSpec("l1"), 0.0)


# ---------------------------------------------------------------------------
# the dual norm of each unit

def _reference_dual_norm(V, spec):
    """dual_norm one unit at a time: the columns for l1, the groups at
    their places in `blocks.layout` otherwise."""
    if spec.kind == "l1":
        return np.array([np.max(np.abs(V[:, j])) for j in range(V.shape[1])])
    perm, _ = spec.blocks.layout
    perm = np.arange(V.shape[1]) if perm is None else perm
    out, lo = [], 0
    for size in spec.blocks.layout.sizes():
        G, lo = V[:, perm[lo:lo + size]], lo + size
        if spec.blocks.mode == "cross-class":
            G = G.reshape(1, -1)
        rows = np.sqrt(np.sum(G * G, axis=1)) if spec.kind == "l12" else np.sum(np.abs(G), axis=1)
        out.append(np.max(rows))
    return np.array(out)


def _dual_norm_cases(rng):
    """(spec, V) over the screened kinds and modes, K = 1..5, contiguous
    and shuffled mixed-size groups."""
    for kind, mode in SCREENED:
        for K in range(1, 6):
            for contiguous in (True, False):
                M = int(rng.integers(2, 40))
                blocks = None
                if mode is not None:
                    blocks = (BlockStructure.contiguous(M, int(rng.integers(1, 6)), mode=mode)
                              if contiguous else _shuffled_groups(rng, M, mode))
                yield RegularizerSpec(kind, blocks), rng.standard_normal((K, M))


def test_dual_norm_matches_a_unit_by_unit_reference(rng):
    for _ in range(5):
        for spec, V in _dual_norm_cases(rng):
            np.testing.assert_allclose(dual_norm(V, spec), _reference_dual_norm(V, spec),
                                       rtol=1e-14, atol=0, err_msg=str(spec))


def test_the_prox_zeroes_a_unit_exactly_when_its_dual_norm_is_below_one(rng):
    for _ in range(5):
        for spec, V in _dual_norm_cases(rng):
            norms = dual_norm(V, spec)
            V /= np.median(norms)  # dual norms on both sides of 1
            norms = dual_norm(V, spec)
            tau = rng.uniform(0.1, 3.0)
            x = np.hstack([tau * V, np.ones((V.shape[0], 1))])
            out = prox_regularizer_aug(x, spec, tau)[:, :-1]
            below, above = norms < 1 - 1e-9, norms > 1 + 1e-9
            assert np.all(out[:, _unit_columns(spec, below)] == 0.0), spec
            for u in np.flatnonzero(above):
                assert np.any(out[:, _unit_columns(spec, np.arange(norms.size) == u)]), spec


def test_dual_norm_of_l2sq_is_an_error():
    with pytest.raises(ValueError, match="l2sq"):
        dual_norm(np.ones((2, 3)), RegularizerSpec("l2sq"))
