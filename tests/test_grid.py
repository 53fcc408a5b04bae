"""Slice sampling of sub-level sets and byte-deterministic export."""

import csv
import hashlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from henonlab import (DomainError, HenonMap, SliceSpec, annulus_radius, export_grid, green_plus,
                      sample_slice)
from henonlab.grid import (STATUS_BOUNDARY, STATUS_NAMES, STATUS_K_CANDIDATE,
                           STATUS_OMEGA_PRIME, STATUS_OUTSIDE, GridResult, export_bytes)
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


def test_annulus_radius_ranges():
    assert annulus_radius(0.0, 1.0) is None
    assert annulus_radius(2.0, 1.0) is None
    assert annulus_radius(0.5, 1.0) == pytest.approx(math.exp(0.5))
    with pytest.raises(ValueError):
        annulus_radius(-0.1, 1.0)


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


def test_unknown_format_rejected(grid):
    with pytest.raises(ValueError):
        export_bytes(grid, "bmp")


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


def test_json_bytes_match_per_cell_oracle():
    g = edge_grid(far=1.5)
    assert export_bytes(g, "json") == _oracle_json(g)


def test_json_rejects_nonfinite_green():
    with pytest.raises(ValueError):
        export_bytes(edge_grid(), "json")


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
