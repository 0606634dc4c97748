"""Stacked tangent samples: a stack (m, n) of tangent points gives, member
by member, the bits of the single-point calls, and is validated as a whole."""

import numpy as np
import pytest

from finslerlab import curvature as cu
from finslerlab.errors import PreconditionError
from finslerlab.geodesics import transport_both_ways
from finslerlab.minkowski import (
    TangentSample,
    cartan_norm,
    cartan_tensor,
    cartan_tilde,
    density_field,
    fundamental_tensor,
    mean_cartan,
)

from conftest import tangent_samples

METRICS = ["funk", "funk3", "hilbert_quartic", "berwald_product", "randers_curl"]


def _ft_fields(metric, sample):
    ft = fundamental_tensor(metric, sample)
    return ft.g, ft.g_inv, ft.det_g


def _berwald_fields(metric, sample):
    bt = cu.berwald_curvature(metric, sample)
    return bt.B, bt.E


def _s_jet_fields(metric, sample):
    S_jet, E = cu.s_jet_workspace(metric, sample, density_field(metric))
    return S_jet.coeffs, E


READS = {
    "fundamental_tensor": _ft_fields,
    "cartan_tensor": lambda m, s: (cartan_tensor(m, s),),
    "cartan_tilde": lambda m, s: (cartan_tilde(m, s),),
    "mean_cartan": lambda m, s: (mean_cartan(m, s),),
    "cartan_norm": lambda m, s: (cartan_norm(m, s),),
    "berwald_curvature": _berwald_fields,
    "landsberg_from_berwald": lambda m, s: (cu.landsberg_from_berwald(m, s),),
    "s_jet_workspace": _s_jet_fields,
}


@pytest.mark.parametrize("read", READS.values(), ids=READS.keys())
@pytest.mark.parametrize("name", METRICS)
def test_stack_equals_pointwise_calls(zoo, name, read):
    metric = zoo[name]
    pairs = tangent_samples(metric, 4)
    xs, ys = (np.array(a) for a in zip(*pairs))
    stacked = read(metric, TangentSample(xs, ys))
    for k, (x, y) in enumerate(pairs):
        single = read(metric, TangentSample(x, y))
        for field_stack, field in zip(stacked, single):
            assert np.array_equal(field_stack[k], field)


def test_one_point_keeps_float_results(zoo):
    metric = zoo["funk3"]
    sample = TangentSample(*tangent_samples(metric, 1)[0])
    assert type(fundamental_tensor(metric, sample).det_g) is float
    assert type(cartan_norm(metric, sample)) is float


STENCIL_READS = {
    "cartan_on_frame": lambda m: (
        lambda x, v, U: cu._frame_contract3(cartan_tensor(m, TangentSample(x, v)), U)),
    "landsberg_on_frame": lambda m: (
        lambda x, v, U: cu._frame_contract3(cu.landsberg_from_berwald(m, TangentSample(x, v)), U)),
    "mean_cartan_on_frame": lambda m: (
        lambda x, v, U: (U @ mean_cartan(m, TangentSample(x, v))[..., None])[..., 0]),
    "det_g": lambda m: (lambda x, v, U: fundamental_tensor(m, TangentSample(x, v)).det_g),
}


@pytest.mark.parametrize("make_fn", STENCIL_READS.values(), ids=STENCIL_READS.keys())
@pytest.mark.parametrize("name", METRICS)
def test_geodesic_stencil_equals_pointwise_calls(zoo, name, make_fn):
    metric = zoo[name]
    x, y = tangent_samples(metric, 1, y_lo=0.5, y_hi=0.5)[0]
    h, frame = 1e-2, np.eye(metric.n)
    fn = make_fn(metric)
    q = cu._geodesic_stencil(metric, TangentSample(x, y), fn, h, frame)
    xs, vs, frames = transport_both_ways(metric, x, y, [h, 2 * h, 4 * h], frame)
    for member, sign in enumerate((1, -1)):
        for k, step in enumerate((1, 2, 4)):
            single = fn(xs[member, k], vs[member, k], frames[member, k])
            assert np.array_equal(q[sign * step], single)


class TestStackValidation:
    @pytest.mark.parametrize("name", ["funk", "hilbert_quartic", "randers_curl",
                                      "berwald_product"])
    def test_one_row_outside_the_chart(self, zoo, name):
        metric = zoo[name]
        xs, ys = (np.array(a) for a in zip(*tangent_samples(metric, 4)))
        xs[2] = 1.2 * metric.chart.sample_box[1][0] * np.ones(metric.n)
        with pytest.raises(PreconditionError, match="outside the metric chart"):
            fundamental_tensor(metric, TangentSample(xs, ys))

    @pytest.mark.parametrize("name", ["funk", "hilbert", "randers_curl", "berwald_product"])
    def test_one_zero_row(self, zoo, name):
        metric = zoo[name]
        xs, ys = (np.array(a) for a in zip(*tangent_samples(metric, 4)))
        ys[1] = 0.0
        with pytest.raises(PreconditionError, match="too close to zero"):
            cartan_tensor(metric, TangentSample(xs, ys))
