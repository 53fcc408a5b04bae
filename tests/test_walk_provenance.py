"""The provenance every scalar walk reports, frozen.

(value, error_bound, iterations, entry, budget_exhausted) of
crude_green_plus, green_minus and classify_point's G+, at 24 seeded
points of the four benchmark maps and of maps that reach every stop of
the walk: entry and climb to the stop height, entry past the overflow
limit (R = 2.4e87 past 4.6e86), a climb that stops on the limit (d = 30,
whose limit 4.6e8 lies below the stop height), overflow before entry,
entry at the last budget step, an exhausted budget, and a step that
leaves the float range (OverflowError).  The CLI prints `iterations` and
`nExit`, so they must not move; values and bounds are bit-identical at
d = 2, where d^-n is exact, and within one ulp at other degrees.
"""

import math

import pytest

from henonlab import HenonMap
from henonlab.potential import classify_point, crude_green_plus, green_minus

QUAD = HenonMap(2, 3, (0,))
CUBIC = HenonMap(3, 9, (0, 0))
DISS = HenonMap(2, 0.3, (-1.2,))
QUINTIC = HenonMap(5, 0.5 + 0.2j, (0.3, 0, 1, -1j))
BIG_R = HenonMap(3, 1, (0, 3e174))
D30 = HenonMap(30, 2, (0,) * 29)
HUGE_A = HenonMap(2, 1e300, (0,))

# (map, point, budget, crude_green_plus, green_minus, classify_point's G+);
# each outcome is (value.hex(), error_bound.hex(), iterations, entry,
# budget_exhausted), or the exception the call raises
_PROVENANCE = (
    (QUAD, ((5.499-4.316j), (-5.717+5.984j)), 200,
     ('0x1.048f9c17b2272p+1', '0x1.ab9af15db0352p-39', 4, 0, False),
     ('0x1.d5a85d1cf42a4p-1', '0x1.0e5c13e94ffdbp-39', 5, 1, False),
     ('0x1.048f9c17b2272p+1', '0x1.ab4a5116dcbbbp-39', 4, 0, False)),
    (QUAD, ((-3.789-4.553j), (1.817-1.852j)), 200,
     ('0x1.4b4642a308bfdp+0', '0x1.42db89e73db2ap-39', 5, 1, False),
     ('0x1.67072742e38dfp-1', '0x1.deda48f4cde51p-40', 6, 1, False),
     ('0x1.4b4642a308bfdp+0', '0x1.22219a7c2f893p-34', 4, 1, False)),
    (QUAD, ((4.675-3.219j), (-819600+1757000j)), 200,
     ('0x1.cf482aeab8861p+3', '0x1.1048bb37a4639p-36', 2, 0, False),
     ('0x1.88f8a3c28c6a7p+2', '0x1.f671f8bb4ee55p-38', 3, 1, False),
     ('0x1.cf482aeab8861p+3', '0x1.129fce78d067dp-36', 1, 0, False)),
    (QUAD, ((1.276e+200-5.801e+199j), (1.356e+200-7.035e+199j)), 200,
     ('0x1.ccf0d40267840p+8', '0x1.fbe8c1f3e34cap-32', 0, 0, False),
     ('0x1.ccf0d40267840p+8', '0x1.00000001fbe8cp+0', 0, 0, False),
     ('0x1.ccf0d40267840p+8', '0x1.fbe8c1f3e34cap-32', 0, 0, False)),
    (CUBIC, ((2.497-5.419j), (4.576+1.075j)), 200,
     ('0x1.9e73d689350ffp+0', '0x1.7095ccc19a56cp-39', 3, 1, False),
     ('0x1.6356ccdc47f35p-1', '0x1.dcd31f100b8e1p-40', 4, 0, False),
     ('0x1.9e73d689350ffp+0', '0x1.727816c2b8aaep-39', 2, 1, False)),
    (CUBIC, ((-2.272-3.718j), (4.198+0.9939j)), 200,
     ('0x1.972f28a0fb9e2p+0', '0x1.6c96e16be53a1p-39', 3, 1, False),
     ('0x1.6d07b36346a12p-2', '0x1.7dd04d6badddep-40', 4, 1, False),
     ('0x1.972f28a0fb9e3p+0', '0x1.6fbae071e2a4ep-39', 2, 1, False)),
    (CUBIC, ((5.256+3.287j), (-1776000-785900j)), 200,
     ('0x1.cf56553d0ebf5p+3', '0x1.105084cf0a3f6p-36', 1, 0, False),
     ('0x1.dd2986ba44c1ep+1', '0x1.4cb10280335a1p-38', 2, 1, False),
     ('0x1.cf56553d0ebf5p+3', '0x1.12dbcc945f1b1p-36', 0, 0, False)),
    (CUBIC, ((-1.178e+200-1.004e+200j), (8.55e+199-2.384e+199j)), 200,
     ('0x1.ccf42fedb1558p+8', '0x1.00000001fbec7p+0', 0, 0, False),
     ('0x1.cbdaf14606855p+8', '0x1.fab73815deafcp-32', 0, 0, False),
     ('0x1.ccf42fedb1558p+8', '0x1.00000001fbec7p+0', 0, 0, False)),
    (DISS, ((-2.25+3.373j), (5.456+1.811j)), 200,
     ('0x1.bba10b4fa1034p+0', '0x1.80a00a11f86e3p-39', 5, 0, False),
     ('0x1.5e115770a9a39p+1', '0x1.06d20dc5ff716p-38', 4, 1, False),
     ('0x1.bba10b4fa1034p+0', '0x1.816ca61f9248cp-39', 4, 0, False)),
    (DISS, ((-4.293+3.903j), (2.01-3.78j)), 200,
     ('0x1.7af70f9131526p+0', '0x1.5d1364073b186p-39', 5, 1, False),
     ('0x1.7332eeb860763p+1', '0x1.127001d699472p-38', 4, 0, False),
     ('0x1.7af70f9131526p+0', '0x1.8a900ea0f5067p-39', 4, 1, False)),
    (DISS, ((-5.41+0.3818j), (488800-248700j)), 200,
     ('0x1.a6dfc95d514c9p+3', '0x1.f423b20402786p-37', 2, 0, False),
     ('0x1.f3ed46fc2545ap+2', '0x1.3799f77858cf1p-37', 2, 1, False),
     ('0x1.a6dfc95d514c9p+3', '0x1.f9fd043be325cp-37', 1, 0, False)),
    (DISS, ((-1.252e+200-1.367e+199j), (-5.911e+199-9.445e+199j)), 200,
     ('0x1.ccbf685f2ae5ap+8', '0x1.00000001fbb27p+0', 0, 0, False),
     ('0x1.cdf39feef6c01p+8', '0x1.fd054eb6ab7d2p-32', 0, 0, False),
     ('0x1.ccbf685f2ae5ap+8', '0x1.00000001fbb27p+0', 0, 0, False)),
    (QUINTIC, ((4.998-2.312j), (-1.515+0.9911j)), 200,
     ('0x1.42c691fee6a83p-1', '0x1.caec3aff9da26p-40', 3, 1, False),
     ('0x1.ddb349dfff0cap+0', '0x1.935b24d6a92ddp-39', 2, 0, False),
     ('0x1.42c691fee6a83p-1', '0x1.caef15730f406p-40', 2, 1, False)),
    (QUINTIC, ((-2.432+1.148j), (0.5174-0.7983j)), 200,
     ('0x1.7655ccffd8e05p-4', '0x1.3332f7c1f2d57p-40', 4, 2, False),
     ('0x1.2a05a6ecc4af7p+0', '0x1.3093ad00fd8ebp-39', 3, 0, False),
     ('0x1.7655ccffd8e05p-4', '0x1.403ae27af2103p-40', 3, 2, False)),
    (QUINTIC, ((2.079+0.3389j), (632000-13960j)), 200,
     ('0x1.ab6ba19268b15p+3', '0x1.f9235b22d826dp-37', 1, 0, False),
     ('0x1.69bda79a14eccp+1', '0x1.0d3ce54486c5dp-38', 2, 1, False),
     ('0x1.ab6ba19268b15p+3', '0x1.fd66bdb4d77b6p-37', 0, 0, False)),
    (QUINTIC, ((-9.4e+199+4.297e+199j), (9.976e+199-4.733e+199j)), 200,
     ('0x1.cc9dba4866947p+8', '0x1.fb8d633e31f4bp-32', 0, 0, False),
     ('0x1.cc9dba4866947p+8', '0x1.00000001fb8d6p+0', 0, 0, False),
     ('0x1.cc9dba4866947p+8', '0x1.fb8d633e31f4bp-32', 0, 0, False)),
    (QUAD, (0j, 0j), 200,
     ('0x0.0p+0', '0x1.4ae935b3cb89dp-198', 200, None, True),
     ('0x0.0p+0', '0x1.62e42fefa39efp-199', 200, None, True),
     ('0x0.0p+0', '0x1.4ae935b3cb89dp-198', 200, None, True)),
    (QUAD, ((1e+200+0j), (1e+199+0j)), 200,
     ('0x1.cc845b54b54f2p+8', '0x1.00000001fb718p+0', 0, 0, False),
     ('0x1.cb6b1cad0a7efp+8', '0x1.fa3c429c0744ap-32', 0, 0, False),
     ('0x1.cc845b54b54f2p+8', '0x1.00000001fb718p+0', 0, 0, False)),
    (DISS, ((0.9043+0.02399j), (-0.1987-0.8069j)), 3,
     ('0x1.2acac2a302067p-2', '0x1.6b9b3c059a7f5p-40', 7, 3, False),
     ('0x1.2fbdc3c4b67f1p+0', '0x1.33b8d2d8930f3p-39', 5, 2, False),
     ('0x1.2acac2a302067p-2', '0x1.d7f7d4d20c1f3p-37', 6, 3, False)),
    (DISS, ((0.791-0.6572j), (0.09325-0.3017j)), 3,
     ('0x0.0p+0', '0x1.00eedf3f96fbep-1', 3, None, True),
     ('0x1.580b7c8169e72p+0', '0x1.49e0cf2cf0501p-39', 5, 2, False),
     ('0x0.0p+0', '0x1.00eedf3f96fbep-1', 3, None, True)),
    (BIG_R, (0j, (2.474e+87+0j)), 200,
     ('0x1.927623785071dp+7', '0x1.4e9a832338f16p-1', 0, 0, False),
     ('0x1.927623785071dp+7', '0x1.00000000de5aep+0', 0, 0, False),
     ('0x1.927623785071dp+7', '0x1.4e9a832338f16p-1', 0, 0, False)),
    (BIG_R, (0j, 3.674e+87j), 200,
     ('0x1.93409b330a57ep+7', '0x1.2f723776c79ffp-2', 0, 0, False),
     ('0x1.93409b330a57ep+7', '0x1.00000000deca3p+0', 0, 0, False),
     ('0x1.93409b330a57ep+7', '0x1.2f723776c79ffp-2', 0, 0, False)),
    (D30, (0j, (2.127+0j)), 200,
     ('0x1.8269ae79e03bbp-1', '0x1.ede85d141b881p-40', 1, 0, False),
     ('0x1.491c55c2572d2p-10', '0x1.19d40f2de09d0p-40', 3, 2, False),
     ('0x1.8269ae79e03bbp-1', '0x1.ede85d2052425p-40', 0, 0, False)),
    (HUGE_A, ((10000000000+0j), (1+0j)), 200,
     'OverflowError',
     ('0x0.0p+0', '0x1.0a2b23f3bac00p-199', 200, None, True),
     'OverflowError'),
)


FNS = (crude_green_plus, green_minus, lambda m, z, budget: classify_point(m, z, budget).green_plus)


def _same(got: float, want: float, d: int) -> bool:
    return got == want if d == 2 else abs(got - want) <= math.ulp(want)


@pytest.mark.parametrize("row", range(len(_PROVENANCE)))
def test_walk_reports_the_frozen_provenance(row):
    m, z, budget, *outcomes = _PROVENANCE[row]
    for fn, want in zip(FNS, outcomes):
        if want == "OverflowError":
            with pytest.raises(OverflowError):
                fn(m, z, budget)
            continue
        g = fn(m, z, budget)
        value, bound, *provenance = want
        assert (g.iterations, g.entry, g.budget_exhausted) == tuple(provenance), (fn, m, z)
        assert _same(g.value, float.fromhex(value), m.d), (fn, m, z, g)
        assert _same(g.error_bound, float.fromhex(bound), m.d), (fn, m, z, g)

