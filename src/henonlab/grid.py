"""Sampling of sub-level sets {G+ < c} over affine 2-plane slices of C^2
and byte-deterministic export (CSV / 16-bit PGM / JSON).

Pixels with G+ = 0 at the budget are non-escape candidates (never a
claim of membership in the non-escaping set); escaped pixels with
0 < G+ < c lie in the punctured sub-level set and carry the annulus
coordinate e^{G+} in (1, e^c).  Pixels whose Green value is within its
error bound of the level c are tagged boundary-uncertain rather than
misclassified.

The sampler walks the window in tiles of rows, so the escape walk's
temporaries are tile-sized and only the four result arrays are full-size.
export_grid streams the export into its path: the rows (CSV) or the large
JSON lists are formatted on every usable core and written in order, and
every check that can fail runs before the path is opened.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import tempfile
from contextlib import ExitStack, suppress
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
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite extent gives nan
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


def _map_metadata(m: HenonMap) -> dict:
    return {
        "d": m.d,
        "a": [complex(m.a).real, complex(m.a).imag],
        "p": [[complex(cf).real, complex(cf).imag] for cf in m.coeffs],
    }


# pixels per tile of rows: every per-pixel temporary of the escape walk is
# tile-sized and stays in cache (2-core Xeon, a=3 map: the 512^2 walk took
# 36 ms in 16k-pixel tiles, 46 ms in 4k-pixel tiles and 91 ms whole)
_TILE = 16384


def _row_tiles(H: int, W: int):
    """Slices of whole rows of an H x W grid, about _TILE pixels each."""
    rows = max(1, _TILE // W)
    return (slice(r0, min(r0 + rows, H)) for r0 in range(0, H, rows))


def sample_slice(m: HenonMap, spec: SliceSpec, c: float, budget: int = 200,
                 filtration: Optional[FiltrationRadius] = None) -> GridResult:
    """Classify every grid pixel of the slice, a row tile at a time;
    deterministic for fixed input, and no pixel depends on the tiling."""
    if c <= 0:
        raise DomainError("level c must be positive")
    filt = filtration if filtration is not None else estimate_filtration_radius(m)
    W, H = spec.grid_w, spec.grid_h
    us = np.linspace(-spec.extent[0], spec.extent[0], W)
    vs = np.linspace(-spec.extent[1], spec.extent[1], H)
    o0, o1 = complex(spec.origin[0]), complex(spec.origin[1])
    su0, su1 = complex(spec.span_u[0]), complex(spec.span_u[1])
    sv0, sv1 = complex(spec.span_v[0]), complex(spec.span_v[1])

    green, err, annulus = np.empty((H, W)), np.empty((H, W)), np.empty((H, W))
    status = np.empty((H, W), dtype=np.int8)
    u = us[np.newaxis, :]
    for tile in _row_tiles(H, W):
        v = vs[tile, np.newaxis]
        g, e, escaped = (r.reshape(-1, W) for r in green_plus_grid(
            m, o0 + u * su0 + v * sv0, o1 + u * su1 + v * sv1, budget=budget, filtration=filt))
        green[tile], err[tile] = g, e

        st = status[tile]
        st.fill(STATUS_K_CANDIDATE)
        st[escaped & (g < c)] = STATUS_OMEGA_PRIME
        st[escaped & (g >= c)] = STATUS_OUTSIDE
        st[escaped & (np.abs(g - c) <= np.maximum(e, 1e-9))] = STATUS_BOUNDARY

        ann = annulus[tile]
        ann.fill(np.nan)
        mask = (g > 0.0) & (g < c)
        ann[mask] = np.exp(g[mask])

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

# A forked piece costs about 3 ms (fork, temp file, copy) and a cell about
# 2 us: on 2 cores two pieces lose at 64^2 and win from 96^2, so no piece is
# smaller than this many cells and the 32^2 far-field window stays whole
_MIN_PIECE = 8192


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fan_out(out, n: int, cells: int, work) -> None:
    """Write to out, in order, the bytes work(lo, hi) yields over spans of
    range(n), `cells` cells an index: one span per usable core, none under
    _MIN_PIECE cells.  Forked children write all spans but the first to
    unlinked temp files (a full pipe would stall them); the parent redoes a
    failed child's span, so errors surface as in one process."""
    k = max(1, min(_usable_cores(), n * cells // _MIN_PIECE))
    spans = [(n * i // k, n * (i + 1) // k) for i in range(k)]
    children = []
    with ExitStack() as files:
        try:
            for lo, hi in spans[1:]:
                fh, pid = files.enter_context(tempfile.TemporaryFile()), None
                with suppress(OSError, AttributeError):  # no fork, or no process to spare
                    pid = os.fork()
                if pid == 0:
                    try:
                        fh.writelines(work(lo, hi))
                        fh.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
                children.append((lo, hi, pid, fh))
            out.writelines(work(*spans[0]))
        finally:  # on an error too, so that no child is left running
            ok = [pid is not None and os.waitpid(pid, 0)[1] == 0 for _, _, pid, _ in children]
        for (lo, hi, _, fh), written in zip(children, ok):
            if written:
                fh.seek(0)
                shutil.copyfileobj(fh, out)
            else:
                out.writelines(work(lo, hi))


def _write_csv(grid: GridResult, out) -> None:
    # RFC-4180 with CRLF line endings; no field ever needs quoting (floats,
    # status names, empty strings), so each row is one f-string join
    us = [repr(u) for u in grid.us.tolist()]
    vs = grid.vs.tolist()

    def rows(lo, hi):
        for r in range(lo, hi):
            v = repr(vs[r])
            cells = zip(us, grid.green[r].tolist(), grid.status[r].tolist(),
                        grid.annulus[r].tolist())
            yield "".join([f"{u},{v},{g!r},{STATUS_NAMES[s]},{'' if a != a else repr(a)}\r\n"
                           for u, g, s, a in cells]).encode("ascii")

    out.write(b"u,v,greenPlus,status,annulusRadius\r\n")
    _fan_out(out, len(vs), len(us), rows)


def _write_pgm(grid: GridResult, out) -> None:
    c = grid.metadata.get("c", 1.0)
    H, W = grid.green.shape
    out.write(f"P5\n{W} {H}\n65535\n".encode("ascii"))
    for tile in _row_tiles(H, W):  # big-endian samples
        scaled = np.clip(grid.green[tile] / c, 0.0, 1.0)
        out.write(np.round(scaled * 65535.0).astype(">u2").tobytes())


def _dumps(value) -> str:
    # allow_nan=False makes a non-finite float raise ValueError
    return json.dumps(value, separators=(",", ":"), allow_nan=False)


def _write_json(grid: GridResult, out) -> None:
    out.write(f'{{"metadata":{_dumps(grid.metadata)},"u":{_dumps(grid.us.tolist())},'
              f'"v":{_dumps(grid.vs.tolist())}'.encode("ascii"))
    for key, values, items in (
            ("greenPlus", grid.green, lambda v: v),
            ("status", grid.status, lambda v: [STATUS_NAMES[s] for s in v]),
            ("annulusRadius", grid.annulus, lambda v: [None if x != x else x for x in v])):
        out.write(f',"{key}":['.encode("ascii"))
        flat = values.ravel()

        def piece(lo, hi):  # without its brackets, a tile of cells at a time
            for a in range(lo, hi, _TILE):
                text = _dumps(items(flat[a:min(a + _TILE, hi)].tolist()))
                yield b"," * (a > 0) + text[1:-1].encode()
        _fan_out(out, flat.size, 1, piece)
        out.write(b"]")
    out.write(b"}")


def _check_json(grid: GridResult) -> None:
    """Raise the ValueError _write_json would raise part way, before a byte
    is written: a non-finite u, v or G+, or an infinite annulus radius (nan
    is written as null)."""
    _dumps(grid.metadata)
    for values, bad in ((grid.us, ~np.isfinite(grid.us)), (grid.vs, ~np.isfinite(grid.vs)),
                        (grid.green, ~np.isfinite(grid.green)),
                        (grid.annulus, np.isinf(grid.annulus))):
        if bad.any():
            _dumps(float(values[bad][0]))


_EXPORTERS = {"csv": _write_csv, "pgm": _write_pgm, "json": _write_json}


def _exporter(fmt: str):
    if fmt not in _EXPORTERS:
        raise ValueError(f"unknown export format {fmt!r} (choose csv, pgm, or json)")
    return _EXPORTERS[fmt]


def export_bytes(grid: GridResult, fmt: str) -> bytes:
    """The export as one bytes object, for in-memory callers."""
    out = io.BytesIO()
    _exporter(fmt)(grid, out)
    return out.getvalue()


def export_grid(grid: GridResult, fmt: str, path) -> None:
    """Write the grid to path; byte-deterministic for identical input.

    The export is written straight into path.  Every check that can fail,
    the format and JSON's finiteness, runs before path is opened, so a
    rejected export leaves path as it was."""
    write = _exporter(fmt)
    if fmt == "json":
        _check_json(grid)
    try:
        with open(path, "wb") as fh:
            write(grid, fh)
    except OSError as exc:
        raise OSError(f"export to {path} failed: {exc}") from exc
