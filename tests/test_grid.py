"""Slice sampling of sub-level sets and byte-deterministic export."""

import csv
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from henonlab import DomainError, HenonMap, SliceSpec, export_grid, green_plus, sample_slice
from henonlab import grid as grid_module
from henonlab.grid import (_MIN_PIECE, _TILE, STATUS_BOUNDARY, STATUS_NAMES, STATUS_K_CANDIDATE,
                           STATUS_OMEGA_PRIME, STATUS_OUTSIDE, GridResult, export_bytes)
from henonlab.maps import estimate_filtration_radius
from henonlab.potential import green_plus_grid
from henonlab.selfcheck import _acceptance_slice

QUAD = HenonMap(2, 3, (0,))


def small_spec(n=32):
    return SliceSpec(origin=(0, 0), span_u=(1, 0), span_v=(0, 1),
                     grid_w=n, grid_h=n, extent=(3.0, 3.0))


@pytest.fixture(scope="module")
def grid():
    return sample_slice(QUAD, small_spec(), c=1.0, budget=150)


def test_degenerate_spans_rejected():
    with pytest.raises(DomainError):
        SliceSpec(origin=(0, 0), span_u=(1, 1), span_v=(2, 2),
                  grid_w=8, grid_h=8, extent=(1.0, 1.0))
    # orthogonal spans are accepted at any scale
    for s in (1e120, 1e-20):
        SliceSpec(origin=(0, 0), span_u=(s, 0), span_v=(0, s),
                  grid_w=8, grid_h=8, extent=(1.0, 1.0))


def test_window_with_non_finite_corners_rejected():
    # corners are origin +- extent*(|spanU| + |spanV|) per real coordinate
    SliceSpec(origin=(1e308, 0), span_u=(1e307, 0), span_v=(0, 1),
              grid_w=8, grid_h=8, extent=(3.0, 3.0))
    with pytest.raises(DomainError):
        SliceSpec(origin=(1.7e308, 0), span_u=(1e307, 0), span_v=(0, 1),
                  grid_w=8, grid_h=8, extent=(3.0, 3.0))
    with pytest.raises(DomainError):
        SliceSpec(origin=(0, 0), span_u=(1e308, 0), span_v=(0, 1),
                  grid_w=8, grid_h=8, extent=(3.0, 3.0))


def test_tiny_grid_rejected():
    with pytest.raises(DomainError):
        SliceSpec(origin=(0, 0), span_u=(1, 0), span_v=(0, 1),
                  grid_w=1, grid_h=8, extent=(1.0, 1.0))


def test_nonpositive_level_rejected():
    with pytest.raises(DomainError):
        sample_slice(QUAD, small_spec(8), c=0.0)


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_non_finite_level_rejected(c):
    with pytest.raises(DomainError):
        sample_slice(QUAD, small_spec(8), c=c)


def test_negative_budget_rejected():
    for sample in (lambda: green_plus_grid(QUAD, [1.0], [1.0], budget=-1),
                   lambda: sample_slice(QUAD, small_spec(8), c=1.0, budget=-1)):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            sample()


def test_annulus_is_exp_green_inside_the_level(grid):
    # the dissipative map adds pixels bounded within the budget (G+ = 0)
    dissipative = sample_slice(HenonMap(2, 0.3, (-1.2,)), small_spec(16), c=1.0, budget=50)
    for g in (grid, dissipative):
        inside = (g.green > 0.0) & (g.green < 1.0)
        assert inside.any() and (~inside).any()
        assert np.array_equal(g.annulus[inside], np.exp(g.green[inside]))
        assert np.isnan(g.annulus[~inside]).all()
    assert (dissipative.green == 0.0).any()


def test_statuses_and_annulus_consistent(grid):
    H, W = grid.green.shape
    assert grid.status.shape == (H, W)
    for s in np.unique(grid.status):
        assert int(s) in STATUS_NAMES
    omega = grid.status == STATUS_OMEGA_PRIME
    assert np.all(grid.green[omega] < 1.0)
    assert np.all(np.isfinite(grid.annulus[omega]) |
                  (grid.green[omega] == 0.0))
    outside = grid.status == STATUS_OUTSIDE
    assert np.all(grid.green[outside] >= 1.0)
    k_cand = grid.status == STATUS_K_CANDIDATE
    assert np.all(grid.green[k_cand] == 0.0)


def test_export_deterministic(grid):
    g2 = sample_slice(QUAD, small_spec(), c=1.0, budget=150)
    for fmt in ("csv", "pgm", "json"):
        assert export_bytes(grid, fmt) == export_bytes(g2, fmt)


def test_csv_shape_and_header(grid):
    lines = export_bytes(grid, "csv").decode().split("\r\n")
    assert lines[0] == "u,v,greenPlus,status,annulusRadius"
    assert len([ln for ln in lines[1:] if ln]) == 32 * 32


def test_json_round_trips(grid):
    doc = json.loads(export_bytes(grid, "json"))
    assert doc["metadata"]["map"]["d"] == 2
    assert len(doc["greenPlus"]) == 32 * 32
    assert doc["metadata"]["statusLegend"]["1"] == "in-omega-prime"
    assert np.allclose(np.array(doc["greenPlus"]).reshape(32, 32), grid.green)


def test_pgm_header_and_pixels(grid):
    data = export_bytes(grid, "pgm")
    assert data.startswith(b"P5\n32 32\n65535\n")
    pixels = np.frombuffer(data[len(b"P5\n32 32\n65535\n"):], dtype=">u2")
    assert pixels.size == 32 * 32
    assert pixels.max() == 65535  # extent 3 reaches well past G+ = c


def test_export_grid_writes_file(tmp_path, grid):
    out = tmp_path / "g.csv"
    export_grid(grid, "csv", out)
    assert out.read_bytes() == export_bytes(grid, "csv")


@pytest.mark.parametrize("fmt", ["csv", "pgm", "json"])
def test_export_grid_streams_the_fanned_out_bytes(tmp_path, three_cores, fmt):
    g = tiled_grid()
    out = tmp_path / f"g.{fmt}"
    out.write_bytes(b"an older and longer export" * 10 ** 5)
    export_grid(g, fmt, out)
    assert out.read_bytes() == export_bytes(g, fmt)


@pytest.mark.parametrize("fmt, cell", [("json", "green"), ("json", "annulus"),
                                       ("json", "green nan"), ("bmp", None)])
def test_failed_export_leaves_out_unchanged(tmp_path, fmt, cell):
    g = edge_grid(far=1.5)
    if cell is not None:
        getattr(g, cell.split()[0])[1, 2] = math.nan if "nan" in cell else math.inf
    out = tmp_path / "g.out"
    out.write_bytes(b"the previous export\r\n")
    with pytest.raises(ValueError) as raised:
        export_grid(g, fmt, out)
    assert out.read_bytes() == b"the previous export\r\n"
    if cell is not None:  # the error the encoder raises part way through the write
        with pytest.raises(ValueError) as midway:
            export_bytes(g, fmt)
        assert str(raised.value) == str(midway.value)


def test_unknown_format_rejected(grid):
    with pytest.raises(ValueError):
        export_bytes(grid, "bmp")


# -- the tiled walk -----------------------------------------------------------

def _untiled(m, spec, c, budget):
    """The sampler before tiling: one kernel call over the whole window."""
    us = np.linspace(-spec.extent[0], spec.extent[0], spec.grid_w)
    vs = np.linspace(-spec.extent[1], spec.extent[1], spec.grid_h)
    UU, VV = np.meshgrid(us, vs)
    (o0, o1), (su0, su1), (sv0, sv1) = (map(complex, t)
                                        for t in (spec.origin, spec.span_u, spec.span_v))
    green, err, escaped = (r.reshape(UU.shape) for r in green_plus_grid(
        m, o0 + UU * su0 + VV * sv0, o1 + UU * su1 + VV * sv1, budget=budget,
        filtration=estimate_filtration_radius(m)))
    status = np.full(UU.shape, STATUS_K_CANDIDATE, dtype=np.int8)
    status[escaped & (green < c)] = STATUS_OMEGA_PRIME
    status[escaped & (green >= c)] = STATUS_OUTSIDE
    status[escaped & (np.abs(green - c) <= np.maximum(err, 1e-9))] = STATUS_BOUNDARY
    annulus = np.full(UU.shape, np.nan)
    mask = (green > 0.0) & (green < c)
    annulus[mask] = np.exp(green[mask])
    return green, err, status, annulus


TILED_CASES = [  # the four scalar-potential maps, then the far-field window
    (QUAD, (0, 0), 200), (HenonMap(3, 9, (0, 0)), (0, 0), 200),
    (HenonMap(2, 0.3, (-1.2,)), (0, 0), 200),
    (HenonMap(5, 0.5 + 0.2j, (0.3, 0, 1, -1j)), (0, 0), 200),
    (QUAD, (1e200, 1e199), 200),
]


@pytest.mark.parametrize("tile", [_TILE, 100])
@pytest.mark.parametrize("m, origin, budget", TILED_CASES)
def test_tiled_walk_matches_untiled_kernel(monkeypatch, tile, m, origin, budget):
    monkeypatch.setattr(grid_module, "_TILE", tile)
    for W, H in ((2, 2), (3, 517), (517, 3), (1000, 17)):
        spec = SliceSpec(origin=origin, span_u=(1, 0), span_v=(0, 1), grid_w=W, grid_h=H,
                         extent=(3.0, 2.0))
        g = sample_slice(m, spec, c=1.0, budget=budget)
        tiled = (g.green, g.error, g.status, g.annulus)
        for new, old in zip(tiled, _untiled(m, spec, 1.0, budget)):
            assert new.shape == (H, W) and new.dtype == old.dtype
            assert new.tobytes() == old.tobytes(), (m, W, H)


# -- pinned export bytes ------------------------------------------------------

ACCEPTANCE_SHA256 = {
    "csv": "241af273b753d62251754e9f4000a6a061e238565f6544341cec3357dc418584",
    "json": "7233479937025341c9b981396ed27711ab209ae033c83296faac4cad83475ad2",
    "pgm": "873a0c981b6a405d8e0711e5eeb3cc8ad4306707ad28758ba3138357bae108ee",
}


def test_acceptance_slice_export_digests():
    g = sample_slice(QUAD, _acceptance_slice(), c=1.0, budget=200)
    for fmt, digest in ACCEPTANCE_SHA256.items():
        assert hashlib.sha256(export_bytes(g, fmt)).hexdigest() == digest, fmt


# The original per-cell exporters, kept as the byte oracle for the edge cases below.

def _oracle_csv(grid):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["u", "v", "greenPlus", "status", "annulusRadius"])
    H, W = grid.green.shape
    for r in range(H):
        for cidx in range(W):
            ann = grid.annulus[r, cidx]
            writer.writerow([
                repr(float(grid.us[cidx])),
                repr(float(grid.vs[r])),
                repr(float(grid.green[r, cidx])),
                STATUS_NAMES[int(grid.status[r, cidx])],
                "" if math.isnan(ann) else repr(float(ann)),
            ])
    return buf.getvalue().encode("ascii")


def _oracle_json(grid):
    doc = {
        "metadata": grid.metadata,
        "u": [float(x) for x in grid.us],
        "v": [float(x) for x in grid.vs],
        "greenPlus": [float(x) for x in grid.green.ravel()],
        "status": [STATUS_NAMES[int(s)] for s in grid.status.ravel()],
        "annulusRadius": [None if math.isnan(x) else float(x) for x in grid.annulus.ravel()],
    }
    return json.dumps(doc, separators=(",", ":"), allow_nan=False).encode("ascii")


def edge_grid(far=float("inf")):
    """3 x 5 grid with every status, NaN annulus cells and extreme G+ values."""
    green = np.array([[-0.0, 2.0, 1e-300, 1e300, far],
                      [0.0, 0.5, 1.0 / 3.0, 0.9999999999999999, 1e-5],
                      [5e-324, 123456789.125, 0.1, 1.0, 7.0]])
    status = np.array([[0, 2, 1, 2, 2],
                       [0, 1, 1, 3, 1],
                       [3, 2, 1, 3, 2]], dtype=np.int8)
    annulus = np.exp(green, where=(green > 0.0) & (green < 1.0), out=np.full_like(green, np.nan))
    us = np.linspace(-3.0, 3.0, 5)
    vs = np.array([-1e-7, -0.0, 1e200])
    meta = {"c": 1.0, "nested": {"list": [1, 2.5, None], "name": "x"},
            "statusLegend": {str(k): v for k, v in sorted(STATUS_NAMES.items())}}
    return GridResult(green, np.zeros_like(green), status, annulus, us, vs, meta)


def test_csv_bytes_match_per_cell_oracle():
    g = edge_grid()
    assert set(np.unique(g.status).tolist()) == {STATUS_K_CANDIDATE, STATUS_OMEGA_PRIME,
                                                 STATUS_OUTSIDE, STATUS_BOUNDARY}
    assert np.isnan(g.annulus).any() and np.isfinite(g.annulus).any()
    assert g.green.shape[0] != g.green.shape[1]
    assert export_bytes(g, "csv") == _oracle_csv(g)
    assert b",inf,outside,\r\n" in export_bytes(g, "csv")


def test_json_bytes_match_per_cell_oracle(monkeypatch):
    g = edge_grid(far=1.5)
    assert export_bytes(g, "json") == _oracle_json(g)
    monkeypatch.setattr(grid_module, "_TILE", 4)  # each list formatted 4 cells at a time
    assert export_bytes(g, "json") == _oracle_json(g)


def test_json_rejects_nonfinite_green():
    with pytest.raises(ValueError):
        export_bytes(edge_grid(), "json")


# -- export on every usable core ---------------------------------------------

def tiled_grid():
    """edge_grid (finite G+) tiled to 17 rows, a count 3 does not divide, and
    enough columns for three pieces of at least _MIN_PIECE cells."""
    g, rows = edge_grid(far=1.5), 17
    reps = (-(-rows // 3), -(-3 * _MIN_PIECE // (rows * 5)))
    green, status = np.tile(g.green, reps)[:rows], np.tile(g.status, reps)[:rows]
    annulus = np.tile(g.annulus, reps)[:rows]
    us = np.linspace(-3.0, 3.0, green.shape[1])
    vs = np.tile(g.vs, reps[0])[:rows]
    return GridResult(green, np.zeros_like(green), status, annulus, us, vs, g.metadata)


@pytest.fixture
def three_cores(monkeypatch):
    """Three usable cores; returns the list the fork calls are counted in."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()
    monkeypatch.setattr(grid_module, "_usable_cores", lambda: 3)
    monkeypatch.setattr(os, "fork", counted_fork)
    yield forks
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_fanned_out_export_matches_per_cell_oracle(three_cores):
    g = tiled_grid()
    assert g.green.size >= 3 * _MIN_PIECE and g.green.shape[0] % 3 != 0
    assert export_bytes(g, "csv") == _oracle_csv(g)
    assert len(three_cores) == 2  # the parent formats the first of 3 pieces
    assert export_bytes(g, "json") == _oracle_json(g)
    assert len(three_cores) == 2 + 2  # one fan-out for all three JSON lists


def test_fanned_out_json_raises_on_inf_in_the_last_piece(three_cores):
    g = tiled_grid()
    g.green[-1, -1] = math.inf  # formatted by the last child, which fails
    with pytest.raises(ValueError):
        export_bytes(g, "json")
    assert len(three_cores) == 2


@pytest.mark.parametrize("fmt", ["csv", "pgm", "json"])
def test_export_that_raises_part_way_leaves_out_unchanged(tmp_path, three_cores, fmt):
    """The last row fails after the head and the first pieces are formatted."""
    g = tiled_grid()
    g.status[-1, -1] = 9  # no status name: csv and json raise KeyError
    if fmt == "pgm":  # pgm reads no status, and a G+ of None does not scale
        g.green = g.green.astype(object)
        g.green[-1, -1] = None
    out = tmp_path / f"g.{fmt}"
    out.write_bytes(b"the previous export\r\n")
    with pytest.raises((KeyError, TypeError)):
        export_grid(g, fmt, out)
    assert out.read_bytes() == b"the previous export\r\n"


def test_span_of_a_child_that_fails_part_way_is_redone(three_cores, monkeypatch):
    parent, csv_layout = os.getpid(), grid_module._LAYOUTS["csv"]

    def child_fails_after_two_rows(grid):
        cells, (head, rows, tail) = csv_layout(grid)

        def flaky(lo, part):
            for r, row in enumerate(rows(lo, part)):
                if r == 2 and os.getpid() != parent:
                    raise OSError("no space left on device")
                yield row
        return cells, [head, flaky, tail]

    monkeypatch.setitem(grid_module._LAYOUTS, "csv", child_fails_after_two_rows)
    g = tiled_grid()
    assert export_bytes(g, "csv") == _oracle_csv(g)
    assert len(three_cores) == 2


def test_export_without_a_process_to_spare_matches_oracle(three_cores, monkeypatch):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", no_fork)
    g = tiled_grid()
    assert export_bytes(g, "csv") == _oracle_csv(g)
    assert export_bytes(g, "json") == _oracle_json(g)


def test_small_window_is_formatted_in_one_process(three_cores):
    g = sample_slice(QUAD, small_spec(32), c=1.0)
    assert g.green.size < 2 * _MIN_PIECE
    for fmt in ("csv", "json"):
        export_bytes(g, fmt)
    assert three_cores == []


# -- the shortest round-trip float kernel ---------------------------------------

REPR_EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-7, 1e-5, 9.999999999999999e-05,
              1e-4, 123456789.125, 1e15, 9999999999999998.0, 1e16, 1.7976931348623157e308]


def bit_patterns(rng, n, fixed):
    """n random float64 bit patterns; fixed ones have exponents where repr
    writes no e (2^-13 <= |x| < 2^53), the others any exponent, nan and
    inf included."""
    bits = rng.integers(0, 2 ** 64, size=n, dtype=np.uint64)
    if fixed:
        exponent = rng.integers(1023 - 13, 1023 + 53, size=n, dtype=np.uint64)
        bits = bits & ~np.uint64(0x7FF << 52) | exponent << np.uint64(52)
    return bits.view(np.float64)


def bit_pattern_grid(json_safe, strided=False):
    """A 200 x 500 grid of 10^5 G+ and 10^5 annulus bit patterns: rows 0-99
    in repr's fixed notation with a quarter of the annulus nan, rows 100-199
    of any exponent.  Each edge value (negated too, and +-inf and nan) goes
    into a fixed-notation row of its own, G+ from row 10 and annulus from
    row 50, so that those rows mix both notations.  json_safe leaves no
    non-finite G+, u or v and no infinite annulus."""
    rng = np.random.default_rng(27)
    H, W = 200, 500
    green, annulus = (np.concatenate([bit_patterns(rng, H * W // 2, True),
                                      bit_patterns(rng, H * W // 2, False)]).reshape(H, W)
                      for _ in range(2))
    annulus[:H // 2][rng.random((H // 2, W)) < 0.25] = math.nan
    for j, x in enumerate(REPR_EDGES + [-x for x in REPR_EDGES] + [math.inf, -math.inf, math.nan]):
        green[10 + j, 7 * j], annulus[50 + j, 3 * j] = x, x
    us, vs = bit_patterns(rng, W, False), bit_patterns(rng, H, False)
    if json_safe:
        for values in (green, us, vs):
            values[~np.isfinite(values)] = 1.5
        annulus[np.isinf(annulus)] = math.nan
    status = rng.integers(0, 4, size=(H, W), dtype=np.int8)
    if strided:  # every other column of arrays twice as wide
        green, status, annulus = (np.repeat(x, 2, axis=1)[:, ::2] for x in (green, status, annulus))
        assert not green.flags.c_contiguous
    return GridResult(green, np.zeros_like(green), status, annulus, us, vs, {"c": 1.0})


def test_float_kernel_writes_the_reprs():
    g = bit_pattern_grid(json_safe=False)
    # fixed notation (nan in the annulus), one edge value each, a quarter of
    # the tokens in e-notation, any exponent (nearly all in e-notation)
    rows = [g.green[:10], g.annulus[:10], *g.green[10:39], *g.annulus[50:79],
            *(np.concatenate([x[0], x[100, :200]]) for x in (g.green, g.annulus)),
            g.green[100:110], g.annulus[100:110]]
    for values in rows:
        for nan in (b"nan", b"", b"null"):
            want = ",".join(repr(x) if x == x else nan.decode() for x in values.ravel().tolist())
            assert grid_module._reprs(values.ravel(), nan) == want.encode()


def test_float_kernel_reformats_only_the_tokens_orjson_writes_otherwise(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return f"{x!r}"
    monkeypatch.setattr(grid_module, "repr", counted, raising=False)
    values = np.full(1000, 1.5)
    values[[3, 400, 999]] = 1e-7, -math.inf, 1e16
    values[[7, 8]] = math.nan
    want = ["1.5"] * 1000
    want[3], want[400], want[999], want[7], want[8] = "1e-07", "-inf", "1e+16", "", ""
    assert grid_module._reprs(values, b"") == ",".join(want).encode()
    assert calls == [1e-7, -math.inf, 1e16]


@pytest.mark.parametrize("strided, tile", [(False, _TILE), (True, 500)],
                         ids=["contiguous", "strided-row-tiles"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bit_patterns_export_as_the_per_cell_oracle(three_cores, monkeypatch, fmt, strided, tile):
    """A tile of one row puts each edge value in a chunk of its own."""
    monkeypatch.setattr(grid_module, "_TILE", tile)
    g = bit_pattern_grid(json_safe=fmt == "json", strided=strided)
    assert g.green.size >= 3 * _MIN_PIECE
    want = {"csv": _oracle_csv, "json": _oracle_json}[fmt](g)
    monkeypatch.setattr(grid_module, "_usable_cores", lambda: 1)
    assert export_bytes(g, fmt) == want and three_cores == []
    monkeypatch.setattr(grid_module, "_usable_cores", lambda: 3)
    assert export_bytes(g, fmt) == want and len(three_cores) == 2


def test_cli_far_field_json_exports(tmp_path):
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps({
        "map": {"d": 2, "p": [0], "a": 3},
        "slice": {"origin": [[1e200, 0], [1e199, 0]], "spanU": [1, 0], "spanV": [0, 1],
                  "gridW": 4, "gridH": 4, "extent": 3},
    }))
    out = tmp_path / "far_out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "henonlab.cli", "slice", "--config", str(cfg), "--c", "1",
         "--out", str(out), "--format", "json"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 1
    json.loads(proc.stdout)
    # the walk overflows before V_R+ entry: the grid values it as the scalar engine does
    g = sample_slice(QUAD, SliceSpec(origin=(1e200, 1e199), span_u=(1, 0), span_v=(0, 1),
                                     grid_w=4, grid_h=4, extent=(3.0, 3.0)), c=1.0)
    assert json.loads(out.read_bytes())["greenPlus"] == g.green.ravel().tolist()
    for r, v in enumerate(g.vs.tolist()):
        for col, u in enumerate(g.us.tolist()):
            scalar = green_plus(QUAD, (1e200 + u, 1e199 + v))
            assert math.isfinite(g.green[r, col])
            assert abs(g.green[r, col] - scalar.value) <= g.error[r, col] + scalar.error_bound


# -- the CLI samples each span in the process that formats it -------------------

CLI_WINDOWS = {  # (map, slice, budget); the dissipative window has full-budget pixels,
    # and all but the far one fork in every format
    "acceptance": ({"d": 2, "p": [0], "a": 3},
                   {"origin": [0, 0], "spanU": [1, 0], "spanV": [0, 1],
                    "gridW": 256, "gridH": 256, "extent": 3}, 200),
    "cubic": ({"d": 3, "p": [0, 0], "a": 9},
              {"origin": [[0.25, 0], [-0.5, 0.125]], "spanU": [1, 0], "spanV": [[0, 1], [0.5, 0]],
               "gridW": 181, "gridH": 277, "extent": [2.5, 2]}, 200),
    "dissipative": ({"d": 2, "p": [-1.2], "a": 0.3},
                    {"origin": [0, 0], "spanU": [1, 0], "spanV": [0, 1],
                     "gridW": 224, "gridH": 229, "extent": 2}, 60),
    "far": ({"d": 2, "p": [0], "a": 3},
            {"origin": [[1e200, 0], [1e199, 0]], "spanU": [1, 0], "spanV": [0, 1],
             "gridW": 32, "gridH": 32, "extent": 3}, 200),
}


def _complex(v):
    return complex(*v) if isinstance(v, list) else complex(v)


@functools.cache
def _library_exports(key):
    """export_bytes(sample_slice(...)) of a CLI window, in each format."""
    doc, win, budget = CLI_WINDOWS[key]
    ext = win["extent"] if isinstance(win["extent"], list) else [win["extent"]] * 2
    spec = SliceSpec(origin=tuple(map(_complex, win["origin"])),
                     span_u=tuple(map(_complex, win["spanU"])),
                     span_v=tuple(map(_complex, win["spanV"])),
                     grid_w=win["gridW"], grid_h=win["gridH"], extent=tuple(ext))
    m = HenonMap(doc["d"], doc["a"], tuple(doc["p"]))
    g = sample_slice(m, spec, c=1.0, budget=budget)
    if key == "dissipative":
        assert (g.status == STATUS_K_CANDIDATE).sum() > g.status.size // 4
    return {fmt: export_bytes(g, fmt) for fmt in ("csv", "json", "pgm")}


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("key", list(CLI_WINDOWS))
def test_cli_slice_bytes_are_the_library_bytes(tmp_path, capsys, three_cores, monkeypatch,
                                                key, cores):
    from henonlab.cli import main
    want = _library_exports(key)
    three_cores.clear()
    monkeypatch.setattr(grid_module, "_usable_cores", lambda: cores)
    doc, win, budget = CLI_WINDOWS[key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"map": doc, "slice": win, "budget": budget}))
    for fmt in ("csv", "json", "pgm"):
        if key == "acceptance":
            assert hashlib.sha256(want[fmt]).hexdigest() == ACCEPTANCE_SHA256[fmt]
        out, forks = tmp_path / f"g.{fmt}", len(three_cores)
        assert main(["slice", "--config", str(cfg), "--c", "1", "--out", str(out),
                     "--format", fmt]) == 0
        assert out.read_bytes() == want[fmt], (key, fmt, cores)
        # every format forks, PGM too, but in the 32^2 far-field window
        assert (len(three_cores) > forks) == (cores > 1 and key != "far"), (key, fmt, cores)
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["csv", "json", "pgm"])
@pytest.mark.parametrize("x0", [-1e8, 1e8], ids=["parent", "child"])
def test_cli_walk_past_the_float_range_after_the_fork(tmp_path, capsys, three_cores, fmt, x0):
    """a = 1e300 sends x > 1.8e8 to inf in one step: here the rows with v below
    -1.6 (the parent's span), or above 1.6 (the last child's)."""
    from henonlab.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "map": {"d": 2, "p": [0], "a": 1e300},
        "slice": {"origin": [x0, 1], "spanU": [0, 0.1], "spanV": [5e7, 0],
                  "gridW": 224, "gridH": 224, "extent": 3}}))
    out = tmp_path / f"g.{fmt}"
    out.write_bytes(b"the previous export\r\n")
    code = main(["slice", "--config", str(cfg), "--c", "1", "--out", str(out), "--format", fmt])
    err = capsys.readouterr().err.splitlines()
    assert code == 3 and len(err) == 1 and json.loads(err[0])["error"] == "overflow"
    assert out.read_bytes() == b"the previous export\r\n"
    assert three_cores  # the walk failed after the fork; the fixture reaps every child
