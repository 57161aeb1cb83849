"""Figure 4: modeled SMARTS simulation rate versus detailed warming W.

Paper shape: without functional warming the normalized simulation rate
decays from S_F toward S_D as W grows, and the decay starts earlier and
is sharper for a slower detailed simulator (S_D = 1/600); with
functional warming the rate stays pinned near S_FW ≈ 0.55 because W is
bounded to a few thousand instructions.
"""

from conftest import record_report

from repro.core.perf_model import PAPER_SFW
from repro.api import run_study


def test_figure4_modeled_simulation_rate(benchmark, ctx):
    data = benchmark.pedantic(
        lambda: run_study("fig4", ctx).data, rounds=1, iterations=1)
    record_report("fig4_speed_model", data["report"])
    record_report("fig4_speed_model", data["measured_report"], host_timed=True)

    curves = data["curves"]
    today = dict(curves["S_D=1/60"])
    future = dict(curves["S_D=1/600"])
    warmed = dict(curves["S_FW=0.55 (functional warming)"])
    warming_values = sorted(today)

    # Monotonic decay toward S_D without functional warming.
    rates_today = [today[w] for w in warming_values]
    assert rates_today == sorted(rates_today, reverse=True)
    assert rates_today[0] > 0.9               # near S_F at W = 0
    assert rates_today[-1] < 0.35             # collapsed at W = 10M

    # The slower detailed simulator collapses earlier and further: by the
    # largest W the S_D=1/600 curve sits an order of magnitude below the
    # S_D=1/60 curve.
    for w in warming_values:
        assert future[w] <= today[w] + 1e-9
    assert future[warming_values[-1]] < 0.5 * today[warming_values[-1]]

    # With functional warming the rate is flat and near S_FW.
    warmed_rates = [warmed[w] for w in warming_values]
    assert max(warmed_rates) - min(warmed_rates) < 0.05
    assert abs(warmed_rates[0] - PAPER_SFW) < 0.1

    # Our measured simulator rates are sane: detailed slower than
    # functional, warming between the two.
    measured = data["measured_rates"]
    assert measured.s_detailed < 1.0
    assert measured.detailed_ips < measured.functional_ips
