"""Sampling of sub-level sets {G+ < c} over affine 2-plane slices of C^2
and byte-deterministic export (CSV / 16-bit PGM / JSON).

Pixels with G+ = 0 at the budget are non-escape candidates (never a
claim of membership in the non-escaping set); escaped pixels with
0 < G+ < c lie in the punctured sub-level set and carry the annulus
coordinate e^{G+} in (1, e^c).  Pixels whose Green value is within its
error bound of the level c are tagged boundary-uncertain rather than
misclassified.

The sampler walks the window in tiles of rows, so the escape walk's
temporaries are tile-sized and only the four result arrays grow with the
rows asked for.  export_grid formats every piece of the export on every
usable core before it opens its path; given a SliceSampler, each process
walks only the rows it formats.  CSV and JSON floats come from one
shortest round-trip kernel, _reprs, with the bytes of repr.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import tempfile
from contextlib import ExitStack, nullcontext, suppress
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError
from .maps import FiltrationRadius, HenonMap, filtration_of
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

    def rows(self, lo: int, hi: int) -> GridResult:
        """Rows lo..hi of the grid, as views."""
        return GridResult(self.green[lo:hi], self.error[lo:hi], self.status[lo:hi],
                          self.annulus[lo:hi], self.us, self.vs[lo:hi], self.metadata)


# pixels per tile of rows: every per-pixel temporary of the escape walk is
# tile-sized and stays in cache (2-core Xeon, a=3 map, medians of 9: the 512^2
# walk took 31 ms in 16k-pixel tiles, 40-41 ms in 4k-pixel tiles, 51-54 ms whole)
_TILE = 16384


def _row_tiles(H: int, W: int):
    """Slices of whole rows of an H x W grid, about _TILE pixels each."""
    rows = max(1, _TILE // W)
    return (slice(r0, min(r0 + rows, H)) for r0 in range(0, H, rows))


class SliceSampler:
    """A slice before its walk: the grid's us, vs and metadata, and rows(lo,
    hi), the GridResult of rows lo..hi, walked a row tile at a time.  No
    pixel depends on the tiling or on the rows asked for, so export_grid
    and export_bytes sample each span in the process that formats it."""

    def __init__(self, m: HenonMap, spec: SliceSpec, c: float, budget: int = 200,
                 filtration: Optional[FiltrationRadius] = None):
        if not 0 < c < np.inf:
            raise DomainError("level c must be positive and finite")
        self.m, self.c, self.budget = m, c, budget
        self.filt = filt = filtration_of(m, filtration)
        self.us = np.linspace(-spec.extent[0], spec.extent[0], spec.grid_w)
        self.vs = np.linspace(-spec.extent[1], spec.extent[1], spec.grid_h)
        self.points = o0, o1, su0, su1, sv0, sv1 = [
            complex(z) for pair in (spec.origin, spec.span_u, spec.span_v) for z in pair]
        self.metadata = {
            "map": {"d": m.d, "a": [complex(m.a).real, complex(m.a).imag],
                    "p": [[complex(cf).real, complex(cf).imag] for cf in m.coeffs]},
            "c": float(c),
            "budget": int(budget),
            "R": float(filt.R),
            "slice": {
                "origin": [[o0.real, o0.imag], [o1.real, o1.imag]],
                "spanU": [[su0.real, su0.imag], [su1.real, su1.imag]],
                "spanV": [[sv0.real, sv0.imag], [sv1.real, sv1.imag]],
                "gridW": spec.grid_w,
                "gridH": spec.grid_h,
                "extent": [spec.extent[0], spec.extent[1]],
            },
            "statusLegend": {str(k): v for k, v in sorted(STATUS_NAMES.items())},
        }

    def rows(self, lo: int, hi: int) -> GridResult:
        c, W, H = self.c, len(self.us), hi - lo
        o0, o1, su0, su1, sv0, sv1 = self.points
        # allocated before the walk: a grid too large fails here, at once
        green, err, annulus = np.empty((H, W)), np.empty((H, W)), np.empty((H, W))
        status = np.empty((H, W), dtype=np.int8)
        u, vs = self.us[np.newaxis, :], self.vs[lo:hi]
        for tile in _row_tiles(H, W):
            v = vs[tile, np.newaxis]
            g, e, escaped = (r.reshape(-1, W) for r in green_plus_grid(
                self.m, o0 + u * su0 + v * sv0, o1 + u * su1 + v * sv1,
                budget=self.budget, filtration=self.filt))
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
        return GridResult(green, err, status, annulus, self.us, vs, self.metadata)


def sample_slice(m: HenonMap, spec: SliceSpec, c: float, budget: int = 200,
                 filtration: Optional[FiltrationRadius] = None) -> GridResult:
    """Classify every grid pixel of the slice, a row tile at a time;
    deterministic for fixed input, and no pixel depends on the tiling."""
    return SliceSampler(m, spec, c, budget, filtration).rows(0, spec.grid_h)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

# A forked piece costs about 3 ms (fork, temp files, copy) and a JSON cell
# about 0.2 us; a CSV cell costs about twice that, so the CSV layout weighs
# two cells a cell.  On 2 cores (a=3 map, medians of 41 alternating runs) two
# pieces of a sampled grid's CSV lose at 128^2 and win from 160^2, two of
# JSON lose at 192^2, tie at 208^2 and win at 224^2, so no piece weighs less
# than this many cells, and the 32^2 far-field window stays whole
_MIN_PIECE = 24576
# A SliceSampler's span is walked where it is formatted, and a pixel's walk
# weighs one cell more: the a=3 walk costs 60-130 ns a pixel, the dissipative
# y^2-1.2, a=0.3 one about 900.  Walked and formatted, two pieces of a=3 PGM
# lose at 160^2 and win from 192^2, CSV wins from 112^2 and JSON from 144^2
_WALK = 1


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fan_out(files: ExitStack, grid, cells: int, works) -> list:
    """For each of works, unlinked temp files (entered on files) holding its
    work(lo, grid.rows(lo, hi)) over spans of the grid's rows in order,
    `cells` cells a row: one span per usable core, none under _MIN_PIECE
    cells.  Forked children take all spans but the first (a full pipe would
    stall them); the parent redoes a failed child's span, so errors surface
    as in one process."""
    n = len(grid.vs)
    k = max(1, min(_usable_cores(), n * cells // _MIN_PIECE))
    spans = [(n * i // k, n * (i + 1) // k) for i in range(k)]
    pieces = [[files.enter_context(tempfile.TemporaryFile()) for _ in spans] for _ in works]

    def fill(i):
        lo, hi = spans[i]
        rows = grid.rows(lo, hi)
        for work, column in zip(works, pieces):
            column[i].writelines(work(lo, rows))
            column[i].flush()

    children = []
    try:
        for i in range(1, k):
            pid = None
            with suppress(OSError, AttributeError):  # no fork, or no process to spare
                pid = os.fork()
            if pid == 0:
                try:
                    fill(i)
                    os._exit(0)
                finally:
                    os._exit(1)
            children.append((i, pid))
        fill(0)
    finally:  # on an error too, so that no child is left running
        failed = [i for i, pid in children if pid is None or os.waitpid(pid, 0)[1] != 0]
    # only a failed child's files are truncated: ext4 writes a file truncated
    # to 0 and rewritten back to disk on close, ~10 ms per 9 MB on 2 cores
    for i in failed:
        for column in pieces:  # drop what the failed child left
            column[i].seek(0)
            column[i].truncate()
        fill(i)
    return pieces


def _reprs(values: np.ndarray, nan: bytes) -> bytes:
    """values as float64, comma-separated, each as repr writes it and a nan
    as `nan`.  orjson's Ryu digits are repr's (both shortest, then nearest);
    only the notation differs, where repr writes an e (0 < |x| < 1e-4 and
    |x| >= 1e16: orjson writes 1e-7, 0.00001 and 1e16 for repr's 1e-07,
    1e-05 and 1e+16) and for +-inf and nan, which orjson writes as null.
    repr writes those tokens alone, or the whole chunk where they are over
    a third of it; the rest of orjson's bytes stand once they hold no e and
    one '.' a finite value, else repr writes the chunk."""
    import orjson  # here, so that PGM exports and scalar commands never load it
    values = np.ascontiguousarray(values, dtype=np.float64)
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    size = np.abs(values)
    odd = np.flatnonzero((size < 1e-4) & (values != 0.0) | (size >= 1e16))  # +-inf too
    nans = np.count_nonzero(np.isnan(values))
    # by token, a third of 4096 values took 2.0 ms and half 3.3 ms; repr of
    # the whole chunk 2.9 and 3.1 ms (best of 15, 2-core Xeon)
    dense = 3 * odd.size > values.size
    if odd.size and not dense:  # blanked for the byte test, then filled in by repr
        tokens = text.split(b",")
        for i in odd.tolist():
            tokens[i] = b""
        text = b",".join(tokens)
    # the '.' counted by numpy: bytes.count cost ~210 us a 16384-cell tile
    if dense or b"e" in text or np.count_nonzero(
            np.frombuffer(text, np.uint8) == ord(".")) != values.size - nans - odd.size:
        nan = nan.decode("ascii")
        return ",".join([repr(x) if x == x else nan for x in values.tolist()]).encode("ascii")
    if odd.size:
        for i, x in zip(odd.tolist(), values[odd].tolist()):
            tokens[i] = repr(x).encode("ascii")
        text = b",".join(tokens)
    return text.replace(b"null", nan) if nans and nan != b"null" else text


def _csv(grid: GridResult):
    # RFC-4180 with CRLF line endings; no field ever needs quoting (floats,
    # status names, empty strings), so a row is its six columns joined
    W = len(grid.us)
    us = [repr(u).encode("ascii") + b"," for u in grid.us.tolist()]
    names = {k: f",{name},".encode("ascii") for k, name in STATUS_NAMES.items()}

    def rows(lo, part):
        vs = [repr(v).encode("ascii") + b"," for v in part.vs.tolist()]
        cells = [b"\r\n"] * (6 * W)  # u, v, G+, status, annulus, line end
        cells[0::6] = us
        step = max(1, _TILE // (4 * W))  # rows: a whole tile's tokens cost 3 MB of peak RSS
        for r0 in range(0, len(vs), step):
            r1 = min(r0 + step, len(vs))
            green = _reprs(part.green[r0:r1].ravel(), b"nan").split(b",")
            status = [*map(names.__getitem__, part.status[r0:r1].ravel().tolist())]
            annulus = _reprs(part.annulus[r0:r1].ravel(), b"").split(b",")
            for k in range(r1 - r0):
                row = slice(k * W, (k + 1) * W)
                cells[1::6] = [vs[r0 + k]] * W
                cells[2::6], cells[3::6], cells[4::6] = green[row], status[row], annulus[row]
                yield b"".join(cells)

    # a CSV cell weighs two in the split: it costs about two JSON cells
    return 2 * W, [b"u,v,greenPlus,status,annulusRadius\r\n", rows, b""]


def _pgm(grid: GridResult):
    c = grid.metadata.get("c", 1.0)
    H, W = len(grid.vs), len(grid.us)

    def rows(lo, part):  # big-endian samples
        for tile in _row_tiles(len(part.vs), W):
            scaled = np.clip(part.green[tile] / c, 0.0, 1.0)
            yield np.round(scaled * 65535.0).astype(">u2").tobytes()

    # numpy packs a row far faster than a fork pays back: no cells, so only
    # a walk splits a PGM
    return 0, [f"P5\n{W} {H}\n65535\n".encode("ascii"), rows, b""]


def _dumps(value) -> str:
    # allow_nan=False makes a non-finite float raise ValueError
    return json.dumps(value, separators=(",", ":"), allow_nan=False)


def _json(grid: GridResult):
    def column(name, write):
        def piece(lo, part):  # without the list's brackets, a tile of cells at a time
            flat = getattr(part, name).ravel()
            for a in range(0, flat.size, _TILE):
                yield b"," * (lo > 0 or a > 0)
                yield write(flat[a:a + _TILE])
        return piece

    def floats(nan):  # nan as `nan`, and json.dumps's ValueError where JSON has no literal
        def write(tile):
            text = _reprs(tile, nan)
            if b"inf" in text or b"nan" in text:
                _dumps([None if x != x and nan == b"null" else x for x in tile.tolist()])
            return text
        return write

    names = {k: _dumps(name).encode("ascii") for k, name in STATUS_NAMES.items()}
    head = (f'{{"metadata":{_dumps(grid.metadata)},"u":{_dumps(grid.us.tolist())},'
            f'"v":{_dumps(grid.vs.tolist())},"greenPlus":[').encode("ascii")
    green = column("green", floats(b"nan"))
    status = column("status", lambda v: b",".join(map(names.__getitem__, v.tolist())))
    annulus = column("annulus", floats(b"null"))
    return len(grid.us), [head, green, b'],"status":[', status,
                          b'],"annulusRadius":[', annulus, b"]}"]


_LAYOUTS = {"csv": _csv, "pgm": _pgm, "json": _json}


def _export(grid, fmt: str, open_out) -> None:
    """Format every piece of the export, then write them to open_out().  A
    format's layout is (cells, [text, work, text, ..., work, text]): the
    export is each text and, between two texts, work(lo, grid.rows(lo, hi))
    over spans of rows in order; the split weighs `cells` cells a row, and
    a SliceSampler's walk _WALK more a pixel."""
    if fmt not in _LAYOUTS:
        raise ValueError(f"unknown export format {fmt!r} (choose csv, pgm, or json)")
    cells, parts = _LAYOUTS[fmt](grid)
    if isinstance(grid, SliceSampler):
        cells += _WALK * len(grid.us)
    with ExitStack() as files:
        columns = _fan_out(files, grid, cells, parts[1::2])
        with open_out() as out:
            for text, pieces in zip(parts[::2], [*columns, []]):
                out.write(text)
                for fh in pieces:
                    fh.seek(0)
                    shutil.copyfileobj(fh, out)


def export_bytes(grid, fmt: str) -> bytes:
    """The export of a GridResult or a SliceSampler as one bytes object,
    for in-memory callers."""
    out = io.BytesIO()
    _export(grid, fmt, lambda: nullcontext(out))
    return out.getvalue()


def export_grid(grid, fmt: str, path) -> None:
    """Write a GridResult or a SliceSampler to path, byte-deterministic for
    identical input.  Every piece is sampled and formatted before path is
    opened, so a failed export, in its walk, its format, its values or part
    way through, leaves path as it was."""
    try:
        _export(grid, fmt, lambda: open(path, "wb"))
    except OSError as exc:
        raise OSError(f"export to {path} failed: {exc}") from exc
