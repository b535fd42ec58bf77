"""Deterministic SVG charts of dispersion branches along the diagonal slice.

Hand-rolled SVG keeps the plot dependency-free and byte-stable: a fixed
canvas, a fixed palette, and fixed-width coordinate formatting mean the same
surface always serializes to the same bytes.  One polyline per sorted branch;
touch and crossing locations get circular markers, gap records a vertical
width bar, each carrying a tooltip with the classification details.  The
classifier gives one record per feature, from the half slice of the even
profiles; ``bands.mirror_images`` places each at theta1 and, off 0 and pi,
at -theta1.

One writer, ``_el``, writes every element's tag and attributes, and the
root's open tag takes its attributes from the same ``_attrs``, each float
through ``_fmt``; only the polylines' ``points`` are formatted apart
(``_polylines``): the x column, which every branch shares, once per chart,
and then each branch's points in one ``%`` format over the (x text, y)
items.
"""

from __future__ import annotations

from html import escape

import numpy as np

from .bands import DispersionSurface, TouchReport, mirror_images

WIDTH = 800.0
HEIGHT = 500.0
MARGIN_LEFT = 72.0
MARGIN_RIGHT = 24.0
MARGIN_TOP = 44.0
MARGIN_BOTTOM = 58.0

BAND_PALETTE = ("#1b6ca8", "#c23b22", "#2e8540", "#8031a7", "#b8860b",
                "#00787a", "#5d5d5d", "#d04a8c")
MARKER_FILL = {"cone": "#c23b22", "parabolic": "#e07b00", "crossing": "#444444"}
GAP_COLOR = "#2e8540"

_X_TICKS = ((-np.pi, "-pi"), (-np.pi / 2.0, "-pi/2"), (0.0, "0"),
            (np.pi / 2.0, "pi/2"), (np.pi, "pi"))


def _fmt(x: float) -> str:
    """Fixed-width coordinate text (avoids '-0.000000')."""
    out = f"{float(x):.6f}"
    return "0.000000" if out == "-0.000000" else out


class _Frame:
    """Affine map from (theta1, eta) to pixel coordinates."""

    def __init__(self, theta_lo, theta_hi, eta_lo, eta_hi):
        self.theta_lo = theta_lo
        self.theta_hi = theta_hi
        self.eta_lo = eta_lo
        self.eta_hi = eta_hi
        self.x0 = MARGIN_LEFT
        self.x1 = WIDTH - MARGIN_RIGHT
        self.y0 = HEIGHT - MARGIN_BOTTOM
        self.y1 = MARGIN_TOP

    def x(self, theta: float) -> float:
        frac = (theta - self.theta_lo) / (self.theta_hi - self.theta_lo)
        return self.x0 + frac * (self.x1 - self.x0)

    def y(self, eta: float) -> float:
        frac = (eta - self.eta_lo) / (self.eta_hi - self.eta_lo)
        return self.y0 + frac * (self.y1 - self.y0)


def _frame_for(surface: DispersionSurface) -> _Frame:
    lo = float(np.min(surface.values))
    hi = float(np.max(surface.values))
    pad = 0.05 * max(hi - lo, 1e-3)
    return _Frame(float(surface.theta[0]), float(surface.theta[-1]),
                  lo - pad, hi + pad)


def _attrs(**attrs) -> str:
    """Attributes in the order given: each name's ``_`` as ``-``, each float
    through ``_fmt``."""
    return "".join(
        f' {name.replace("_", "-")}="{_fmt(v) if isinstance(v, float) else v}"'
        for name, v in attrs.items())


def _el(tag: str, body: str | None = None, **attrs) -> str:
    """One element: its tag and ``_attrs``, then ``body`` and a close tag, or
    self-closing without a body."""
    return f"<{tag}{_attrs(**attrs)}" + ("/>" if body is None else f">{body}</{tag}>")


def _polylines(frame: _Frame, theta: np.ndarray, values: np.ndarray) -> list[str]:
    """One polyline per column of ``values`` (n, bands) over the shared x
    column ``theta``, in the band palette.

    Every coordinate reads as ``_fmt``'s text: the x column is formatted
    once as ``"x,"`` items, and each band's points take one ``%`` format
    over the interleaved (x text, y) items; only a "-0.000000" token holds
    that text."""
    xs = list(map("%.6f,".__mod__, frame.x(theta).tolist()))
    template = " ".join(["%s%.6f"] * len(xs))
    items = [None] * (2 * len(xs))
    items[0::2] = xs
    lines = []
    for band, ys in enumerate(frame.y(values).T.tolist()):
        items[1::2] = ys
        points = (template % tuple(items)).replace("-0.000000", "0.000000")
        lines.append(_el("polyline", fill="none",
                         stroke=BAND_PALETTE[band % len(BAND_PALETTE)],
                         stroke_width="1.6", points=points))
    return lines


def _axes(frame: _Frame) -> list[str]:
    parts = [_el("rect", x=0, y=0, width=WIDTH, height=HEIGHT, fill="#ffffff")]
    # admissibility window |eta| <= 1, clipped to the frame
    win_lo = max(frame.eta_lo, -1.0)
    win_hi = min(frame.eta_hi, 1.0)
    if win_hi > win_lo:
        top = frame.y(win_hi)
        parts.append(_el("rect", x=frame.x0, y=top, width=frame.x1 - frame.x0,
                         height=frame.y(win_lo) - top, fill="#edf3fa"))
    parts.append(_el("rect", x=frame.x0, y=frame.y1, width=frame.x1 - frame.x0,
                     height=frame.y0 - frame.y1, fill="none", stroke="#333333",
                     stroke_width=1))
    for tick, label in _X_TICKS:
        if tick < frame.theta_lo - 1e-9 or tick > frame.theta_hi + 1e-9:
            continue
        x = frame.x(tick)
        parts.append(_el("line", x1=x, y1=frame.y0, x2=x, y2=frame.y0 + 5.0,
                         stroke="#333333", stroke_width=1))
        parts.append(_el("text", label, x=x, y=frame.y0 + 20.0,
                         font_family="monospace", font_size=12,
                         text_anchor="middle", fill="#333333"))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        eta = frame.eta_lo + frac * (frame.eta_hi - frame.eta_lo)
        y = frame.y(eta)
        parts.append(_el("line", x1=frame.x0 - 5.0, y1=y, x2=frame.x0, y2=y,
                         stroke="#333333", stroke_width=1))
        parts.append(_el("text", f"{eta:.3f}", x=frame.x0 - 9.0, y=y + 4.0,
                         font_family="monospace", font_size=12,
                         text_anchor="end", fill="#333333"))
    parts.append(_el("text", "theta1 (diagonal slice, theta2 = -theta1)",
                     x=(frame.x0 + frame.x1) / 2.0, y=HEIGHT - 14.0,
                     font_family="monospace", font_size=13,
                     text_anchor="middle", fill="#333333"))
    mid = (frame.y0 + frame.y1) / 2.0
    parts.append(_el("text", "eta", x=18, y=mid, font_family="monospace",
                     font_size=13, text_anchor="middle", fill="#333333",
                     transform=f"rotate(-90 18 {_fmt(mid)})"))
    return parts


def _markers(frame: _Frame, reports) -> list[str]:
    parts = []
    for rep in reports:
        x = frame.x(rep.theta1)
        if rep.kind == "gap":
            half = 0.5 * rep.separation
            y_lo = frame.y(rep.value - half)
            y_hi = frame.y(rep.value + half)
            tip = (f"gap pair={rep.band_pair} width={rep.gap_width:.6g} "
                   f"theta1={rep.theta1:.6g}")
            parts.append(_el(
                "g",
                _el("title", escape(tip, quote=False))
                + _el("line", x1=x, y1=y_lo, x2=x, y2=y_hi)
                + _el("line", x1=x - 4.0, y1=y_lo, x2=x + 4.0, y2=y_lo)
                + _el("line", x1=x - 4.0, y1=y_hi, x2=x + 4.0, y2=y_hi),
                stroke=GAP_COLOR, stroke_width="1.4"))
        else:
            fill = MARKER_FILL.get(rep.kind, "#444444")
            detail = ""
            if rep.gamma is not None:
                detail = f" gamma={rep.gamma:.6g}"
            elif rep.curvature is not None:
                detail = f" curvature={rep.curvature:.6g}"
            tip = (f"{rep.kind} pair={rep.band_pair} "
                   f"theta1={rep.theta1:.6g}{detail}")
            parts.append(_el("circle", _el("title", escape(tip, quote=False)),
                             cx=x, cy=frame.y(rep.value), r=4, fill=fill,
                             stroke="#ffffff", stroke_width=1))
    return parts


def _legend(frame: _Frame, dim: int) -> list[str]:
    parts = []
    x = frame.x1 - 86.0
    for band in range(dim):
        color = BAND_PALETTE[band % len(BAND_PALETTE)]
        y = frame.y1 + 14.0 + 16.0 * band
        parts.append(_el("line", x1=x, y1=y - 4.0, x2=x + 18.0, y2=y - 4.0,
                         stroke=color, stroke_width=2))
        parts.append(_el("text", f"band {band}", x=x + 24.0, y=y,
                         font_family="monospace", font_size=12, fill="#333333"))
    return parts


def render_band_chart(surface: DispersionSurface,
                      reports: tuple[TouchReport, ...] = (),
                      title: str = "") -> list[str]:
    """Serialize a sampled surface (plus classified features) to SVG lines.

    ``reports`` are ``classify_touches``'s, one record per feature; each
    located one is drawn at theta1 and, off 0 and pi, at its mirror image
    -theta1 (``bands.mirror_images``)."""
    frame = _frame_for(surface)
    root = _attrs(xmlns="http://www.w3.org/2000/svg", width=WIDTH, height=HEIGHT,
                  viewBox=f"0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}", role="img")
    parts = ['<?xml version="1.0" encoding="UTF-8"?>', f"<svg{root}>"]
    if title:
        text = escape(title, quote=False)
        parts.append(_el("title", text))
        parts.append(_el("text", text, x=WIDTH / 2.0, y=26, font_family="monospace",
                         font_size=15, text_anchor="middle", fill="#111111"))
    parts.extend(_axes(frame))
    parts.extend(_polylines(frame, surface.theta, surface.values))
    parts.extend(_markers(frame, mirror_images(surface, reports)))
    parts.extend(_legend(frame, surface.dim))
    parts.append("</svg>")
    return parts
