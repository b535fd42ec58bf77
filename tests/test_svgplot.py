"""Polyline coordinates of the band chart, against ``_fmt`` point by point."""

import numpy as np

from hexband.svgplot import _fmt, _Frame, _polyline


def test_polyline_formats_every_coordinate_as_fmt():
    # an identity frame, so the coordinates are the values themselves
    frame = _Frame(0.0, 1.0, 0.0, 1.0)
    frame.x0 = frame.y0 = 0.0
    frame.x1 = frame.y1 = 1.0
    values = np.array([0.0, -0.0, -4e-7, -5e-7, -5.000001e-7, 4.9999995e-7,
                       -1e-300, 1e15, -1e15, 123456789.1234567, 799.9999996])
    theta = values[::-1].copy()
    want = " ".join(f"{_fmt(frame.x(t))},{_fmt(frame.y(v))}"
                    for t, v in zip(theta, values))
    line = _polyline(frame, theta, values, "#000000")
    assert f'points="{want}"' in line
    assert "-0.000000" not in line and "-0.000001" in line
