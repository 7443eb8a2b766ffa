import numpy as np
import pytest

from flowseg import (
    GridShape,
    grid_adjacency,
    isomorphism_probe,
    jacobian_check,
    random_check_point,
    square,
)
from flowseg.checks import _OPS, JACOBIAN_OPS, JACOBIAN_TOL, CheckPoint
from flowseg.getconv import diffusivity_jvp
from oracles import in_grid


def masked_point(seed):
    """A getconv check point whose layer is confined to 3 random clusters."""
    point = random_check_point("getconv", seed)
    cls = np.random.default_rng(seed).integers(0, 3, size=len(point.x))
    return CheckPoint("getconv", point.x, point.tangent, (*point.args, cls))


class TestIsomorphismProbe:
    def test_isotropic_gap_is_exactly_zero(self):
        for seed in range(10):
            assert isomorphism_probe(seed).isotropic_gap == 0.0

    def test_anisotropic_gap_is_visible(self):
        for seed in range(10):
            assert isomorphism_probe(seed).anisotropic_gap > 1e-6

    @pytest.mark.parametrize("scale, blind", [(1e-3, {5, 7}), (1.0, set()), (30.0, set())])
    def test_explicit_distinct_features(self, scale, blind):
        # at 30, exponents reach the clamp, the tied layer's too (at seeds 8,
        # 12 and 17); its sums at A and B stay the same two terms, commuted.
        # At 1e-3, seeds 5 and 7 draw an all-negative b1: no ReLU fires at u,
        # v or 0, every query is b2, and the layer is blind to the features
        rng = np.random.default_rng(7)
        for seed in range(20):
            u, v = scale * rng.normal(size=(2, 4))
            rep = isomorphism_probe(seed, u=u, v=v)
            assert rep.isotropic_gap == 0.0
            assert (rep.anisotropic_gap > 0.0) is (seed not in blind), seed

    def test_equal_features_give_zero_gaps(self):
        u = np.array([1.0, -0.5, 2.0, 0.25])
        rep = isomorphism_probe(0, u=u, v=u)
        assert rep.anisotropic_gap == 0.0
        assert rep.isotropic_gap == 0.0


class TestJacobianCheck:
    @pytest.mark.parametrize("op", JACOBIAN_OPS)
    def test_passes_at_tolerance(self, op):
        rep = jacobian_check(random_check_point(op, seed=123))
        assert rep.passed, f"{op}: rel err {rep.max_rel_err}"
        assert rep.max_rel_err < 1e-4

    @pytest.mark.parametrize("op", JACOBIAN_OPS)
    def test_jvp_primal_is_the_forward(self, op):
        point = random_check_point(op, seed=3)
        forward, jvp = _OPS[op]
        np.testing.assert_array_equal(
            jvp(point.x, point.tangent, *point.args)[0], forward(point.x, *point.args)
        )

    def test_masked_getconv_jvp_primal_is_the_forward(self):
        point = masked_point(4)
        forward, jvp = _OPS[point.op]
        np.testing.assert_array_equal(
            jvp(point.x, point.tangent, *point.args)[0], forward(point.x, *point.args)
        )

    def test_masked_getconv_jvp_tangent_matches_central_differences(self):
        for seed in range(5):
            rep = jacobian_check(masked_point(seed))
            assert rep.passed and rep.max_rel_err < JACOBIAN_TOL, f"seed {seed}: {rep}"

    def test_diffusivity_derivative_at_zero_queries(self):
        # with all queries zero, every edge weight is exp(0) = 1 and the
        # derivative is just the sum of the two incident query tangents
        shape = GridShape(3, 3)
        adj = grid_adjacency(shape, square(3))
        rng = np.random.default_rng(0)
        dq = rng.normal(size=(9, 8))
        s, ds = diffusivity_jvp(np.zeros((9, 8)), dq, adj)
        ok = in_grid(3, 3, square(3))
        np.testing.assert_array_equal(s[ok], 1.0)
        want = dq + dq[adj.nbr_safe, adj.recip[None, :]]
        np.testing.assert_allclose(ds[ok], want[ok], atol=1e-15)

    def test_clamped_region_is_flat(self):
        point = random_check_point("diffusivity", seed=0)
        point = CheckPoint(point.op, np.full_like(point.x, 20.0), point.tangent, point.args)
        rep = jacobian_check(point)
        assert rep.passed
        assert rep.max_rel_err == 0.0

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown op"):
            random_check_point("softmax", seed=0)

    def test_jacobian_check_rejects_an_unknown_op(self):
        point = random_check_point("getconv", seed=0)
        with pytest.raises(ValueError, match="unknown op"):
            jacobian_check(CheckPoint("softmax", point.x, point.tangent, point.args))

    def test_a_non_finite_derivative_fails_the_check(self):
        # dq_i + dq_j overflows to inf off the clamp; the forward differences stay finite
        point = random_check_point("diffusivity", seed=0)
        point = CheckPoint(point.op, point.x, np.full_like(point.x, 1e308), point.args)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = jacobian_check(point)
        assert rep.max_rel_err == np.inf
        assert rep.passed is False

    def test_report_fields(self):
        rep = jacobian_check(random_check_point("getconv", seed=5), tol=1e-4)
        assert rep.op == "getconv"
        assert rep.tol == 1e-4
        assert rep.passed == (rep.max_rel_err < rep.tol)
