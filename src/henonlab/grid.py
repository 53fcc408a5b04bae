"""Sampling of sub-level sets {G+ < c} over affine 2-plane slices of C^2
and byte-deterministic export (CSV / 16-bit PGM / JSON).

Pixels with G+ = 0 at the budget are non-escape candidates (never a
claim of membership in the non-escaping set); escaped pixels with
0 < G+ < c lie in the punctured sub-level set and carry the annulus
coordinate e^{G+} in (1, e^c).  Pixels whose Green value is within its
error bound of the level c are tagged boundary-uncertain rather than
misclassified.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError
from .maps import FiltrationRadius, HenonMap, estimate_filtration_radius
from .potential import green_plus_grid

STATUS_K_CANDIDATE = 0
STATUS_OMEGA_PRIME = 1
STATUS_OUTSIDE = 2
STATUS_BOUNDARY = 3

STATUS_NAMES = {
    STATUS_K_CANDIDATE: "in-K-plus-candidate",
    STATUS_OMEGA_PRIME: "in-omega-prime",
    STATUS_OUTSIDE: "outside",
    STATUS_BOUNDARY: "boundary-uncertain",
}


@dataclass(frozen=True)
class SliceSpec:
    """Affine 2-plane window: point(u,v) = origin + u*span_u + v*span_v."""

    origin: tuple
    span_u: tuple
    span_v: tuple
    grid_w: int
    grid_h: int
    extent: tuple  # (half-width in u, half-width in v)

    def __post_init__(self):
        if self.grid_w < 2 or self.grid_h < 2:
            raise DomainError("grid dimensions must be >= 2")
        ext = self.extent if isinstance(self.extent, (tuple, list)) else (self.extent, self.extent)
        object.__setattr__(self, "extent", (float(ext[0]), float(ext[1])))
        if self.extent[0] <= 0 or self.extent[1] <= 0:
            raise DomainError("slice extent must be positive")
        o, su, sv = (np.array([part for c in pair for part in (complex(c).real, complex(c).imag)])
                     for pair in (self.origin, self.span_u, self.span_v))
        # compare directions: the raw Gram determinant scales like |span|^4
        nu, nv = np.abs(su).max(), np.abs(sv).max()
        if not (0.0 < nu < np.inf and 0.0 < nv < np.inf):
            raise DomainError("degenerate slice: spans must be finite and nonzero")
        # largest corner origin +- extent*(|spanU| + |spanV|), per real coordinate
        with np.errstate(over="ignore"):
            reach = np.abs(o) + self.extent[0] * np.abs(su) + self.extent[1] * np.abs(sv)
        if not np.isfinite(reach).all():
            raise DomainError("slice window is not finite: origin +- extent*(|spanU| + |spanV|) overflows")
        su, sv = su / nu, sv / nv
        gram = np.array([[su @ su, su @ sv], [sv @ su, sv @ sv]])
        if np.linalg.det(gram) <= 1e-24 * (su @ su) * (sv @ sv):
            raise DomainError("degenerate slice: spans are linearly dependent")


@dataclass
class GridResult:
    green: np.ndarray       # (H, W) float
    error: np.ndarray       # (H, W) float
    status: np.ndarray      # (H, W) int8, see STATUS_NAMES
    annulus: np.ndarray     # (H, W) float, nan where absent
    us: np.ndarray          # (W,) slice parameter values
    vs: np.ndarray          # (H,) slice parameter values
    metadata: dict = field(default_factory=dict)


def annulus_radius(green_plus: float, c: float) -> Optional[float]:
    """e^{G+} in (1, e^c) when 0 < G+ < c, else None."""
    if green_plus < 0:
        raise ValueError("greenPlus must be nonnegative")
    if 0.0 < green_plus < c:
        return math.exp(green_plus)
    return None


def _map_metadata(m: HenonMap) -> dict:
    return {
        "d": m.d,
        "a": [complex(m.a).real, complex(m.a).imag],
        "p": [[complex(cf).real, complex(cf).imag] for cf in m.coeffs],
    }


def sample_slice(m: HenonMap, spec: SliceSpec, c: float, budget: int = 200,
                 filtration: Optional[FiltrationRadius] = None) -> GridResult:
    """Classify every grid pixel of the slice; deterministic for fixed input."""
    if c <= 0:
        raise DomainError("level c must be positive")
    filt = filtration if filtration is not None else estimate_filtration_radius(m)
    W, H = spec.grid_w, spec.grid_h
    us = np.linspace(-spec.extent[0], spec.extent[0], W)
    vs = np.linspace(-spec.extent[1], spec.extent[1], H)
    UU, VV = np.meshgrid(us, vs)  # (H, W)
    o0, o1 = complex(spec.origin[0]), complex(spec.origin[1])
    su0, su1 = complex(spec.span_u[0]), complex(spec.span_u[1])
    sv0, sv1 = complex(spec.span_v[0]), complex(spec.span_v[1])
    X = o0 + UU * su0 + VV * sv0
    Y = o1 + UU * su1 + VV * sv1

    green, err, escaped = green_plus_grid(m, X, Y, budget=budget, filtration=filt)
    green = green.reshape(H, W)
    err = err.reshape(H, W)
    escaped = escaped.reshape(H, W)

    status = np.full((H, W), STATUS_K_CANDIDATE, dtype=np.int8)
    status[escaped & (green < c)] = STATUS_OMEGA_PRIME
    status[escaped & (green >= c)] = STATUS_OUTSIDE
    uncertain = escaped & (np.abs(green - c) <= np.maximum(err, 1e-9))
    status[uncertain] = STATUS_BOUNDARY

    annulus = np.full((H, W), np.nan)
    mask = (green > 0.0) & (green < c)
    annulus[mask] = np.exp(green[mask])

    meta = {
        "map": _map_metadata(m),
        "c": float(c),
        "budget": int(budget),
        "R": float(filt.R),
        "slice": {
            "origin": [[o0.real, o0.imag], [o1.real, o1.imag]],
            "spanU": [[su0.real, su0.imag], [su1.real, su1.imag]],
            "spanV": [[sv0.real, sv0.imag], [sv1.real, sv1.imag]],
            "gridW": W,
            "gridH": H,
            "extent": [spec.extent[0], spec.extent[1]],
        },
        "statusLegend": {str(k): v for k, v in sorted(STATUS_NAMES.items())},
    }
    return GridResult(green, err, status, annulus, us, vs, meta)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def _csv_bytes(grid: GridResult) -> bytes:
    # RFC-4180 with CRLF line endings; no field ever needs quoting (floats,
    # status names, empty strings), so each row is one f-string join
    us = [repr(u) for u in grid.us.tolist()]
    blocks = [b"u,v,greenPlus,status,annulusRadius\r\n"]
    for r, v in enumerate(grid.vs.tolist()):
        v = repr(v)
        cells = zip(us, grid.green[r].tolist(), grid.status[r].tolist(), grid.annulus[r].tolist())
        blocks.append("".join([
            f"{u},{v},{g!r},{STATUS_NAMES[s]},{'' if a != a else repr(a)}\r\n"
            for u, g, s, a in cells]).encode("ascii"))
    return b"".join(blocks)


def _pgm_bytes(grid: GridResult) -> bytes:
    c = grid.metadata.get("c", 1.0)
    H, W = grid.green.shape
    scaled = np.clip(grid.green / c, 0.0, 1.0)
    pixels = np.round(scaled * 65535.0).astype(">u2")  # big-endian sample order
    header = f"P5\n{W} {H}\n65535\n".encode("ascii")
    return header + pixels.tobytes()


def _json_fields(grid: GridResult):
    """Top-level (key, value) pairs of the JSON export, built one at a time."""
    yield "metadata", grid.metadata
    yield "u", grid.us.tolist()
    yield "v", grid.vs.tolist()
    yield "greenPlus", grid.green.ravel().tolist()
    yield "status", [STATUS_NAMES[s] for s in grid.status.ravel().tolist()]
    yield "annulusRadius", [None if x != x else x for x in grid.annulus.ravel().tolist()]


def _json_bytes(grid: GridResult) -> bytes:
    # one key at a time keeps one large list alive; allow_nan=False makes a
    # non-finite G+ raise ValueError
    body = ",".join(f'"{key}":{json.dumps(value, separators=(",", ":"), allow_nan=False)}'
                    for key, value in _json_fields(grid))
    return ("{" + body + "}").encode("ascii")


_EXPORTERS = {"csv": _csv_bytes, "pgm": _pgm_bytes, "json": _json_bytes}


def export_bytes(grid: GridResult, fmt: str) -> bytes:
    if fmt not in _EXPORTERS:
        raise ValueError(f"unknown export format {fmt!r} (choose csv, pgm, or json)")
    return _EXPORTERS[fmt](grid)


def export_grid(grid: GridResult, fmt: str, path) -> None:
    """Write the grid to path; byte-deterministic for identical input."""
    data = export_bytes(grid, fmt)
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError(f"export to {path} failed: {exc}") from exc
