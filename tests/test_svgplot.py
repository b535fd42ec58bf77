"""The band chart: polyline coordinates against ``_fmt`` point by point,
and the markers of the classified features."""

import re

import numpy as np
import pytest

from hexband.bands import classify_touches, sample_diagonal
from hexband.lattice import CouplingParams, StackConfig, StackVariant, VertexParams
from hexband.svgplot import (
    BAND_PALETTE,
    _fmt,
    _Frame,
    _frame_for,
    _polylines,
    render_band_chart,
)

import frozen


def test_polylines_format_every_coordinate_as_fmt():
    # an identity frame, so the coordinates are the values themselves; the
    # bands share one x column, which holds the awkward values too
    frame = _Frame(0.0, 1.0, 0.0, 1.0)
    frame.x0 = frame.y0 = 0.0
    frame.x1 = frame.y1 = 1.0
    awkward = np.array([0.0, -0.0, -4e-7, -5e-7, -5.000001e-7, 4.9999995e-7,
                        -1e-300, 1e15, -1e15, 123456789.1234567, 799.9999996])
    theta = awkward[::-1].copy()
    values = np.column_stack([awkward, -awkward, np.roll(awkward, 3),
                              np.full(len(awkward), -0.0)])
    lines = _polylines(frame, theta, values)
    assert len(lines) == values.shape[1]
    for band, line in enumerate(lines):
        want = " ".join(f"{_fmt(frame.x(t))},{_fmt(frame.y(v))}"
                        for t, v in zip(theta, values[:, band]))
        assert f'points="{want}"' in line
        assert f'stroke="{BAND_PALETTE[band]}"' in line
        assert "-0.000000" not in line and "-0.000001" in line


def _chart(config):
    """The surface, its records and the cx of the chart's circles, and its
    count of markers (circles and gap bars)."""
    surface = sample_diagonal(config, n=501)
    reports = classify_touches(surface)
    svg = "\n".join(render_band_chart(surface, reports))
    cx = [float(x) for x in re.findall(r'<circle cx="([^"]+)"', svg)]
    return surface, reports, cx, len(cx) + svg.count('<g stroke="#2e8540"')


def test_one_cone_record_is_drawn_at_both_mirror_images():
    config = StackConfig(StackVariant.MONOLAYER, VertexParams(0.2, 0.2))
    surface, reports, cx, count = _chart(config)
    assert [r.kind for r in reports] == ["cone"]
    frame = _frame_for(surface)
    theta_k = frozen.DIRAC_THETA1
    assert cx == pytest.approx([frame.x(-theta_k), frame.x(theta_k)], abs=1e-5)
    assert count == 2


def test_aa_bilayer_keeps_its_eight_markers():
    # two cones and two crossings, each drawn at +-theta1
    config = StackConfig(StackVariant.BILAYER_AA, VertexParams(-1.0, -1.0),
                         coupling=CouplingParams(t0=0.3))
    _, reports, _, count = _chart(config)
    assert len(reports) == 4
    assert count == 8
