"""Load-generator arrival-throughput microbenchmark.

Measures how fast the open-loop client machinery can generate arrivals
— the loadgen overhead every serving scenario pays per request, with a
trivial submit so the scheduler stays out of the way.  Two variants at
one mean rate, so each run offers about the same number of arrivals:

* ``constant``: homogeneous Poisson, one scalar exponential draw per
  arrival;
* ``burst``: a 3x square-wave :class:`RateSchedule` sampled via
  Lewis-Shedler thinning, which draws a candidate gap and an acceptance
  uniform per candidate, in numpy blocks of 512.

Metric: ``ref_arrivals_per_s`` per reference-host second for each
variant (``common.repeat_best_ref``, best of three rounds), with
``arrivals_per_s`` from the same round in raw wall seconds, plus
``cost_per_arrival_burst_over_constant``: the burst's reference-host
time per arrival over the constant variant's.  Below 1, the thinning
path's block draws cost less per arrival than the constant path's
scalar draws.
"""

from __future__ import annotations

from common import bootstrap, repeat_best_ref

bootstrap()

from repro.config import vanilla_config  # noqa: E402
from repro.kernel.kernel import Kernel  # noqa: E402
from repro.workloads.loadgen import (  # noqa: E402
    OpenLoopClients,
    RateSchedule,
)

MS = 1_000_000
_RATE = 200_000.0  # the burst's base rate, arrivals per simulated second


def _generate(rate, horizon_ns: int) -> int:
    kernel = Kernel(vanilla_config(cores=1, seed=2021))
    clients = OpenLoopClients(kernel, lambda req: None, rate_per_sec=rate)
    clients.start()
    kernel.run_for(horizon_ns)
    clients.stop()
    kernel.shutdown()
    return clients.sent


def run(quick: bool = False) -> dict:
    horizon = (100 if quick else 500) * MS
    burst = RateSchedule.burst(_RATE, 3.0, period_ns=10 * MS, duty=0.2)
    const = burst.mean_rate_per_sec()
    ref_c, wall_c, sent_c = repeat_best_ref(lambda: _generate(const, horizon))
    ref_b, wall_b, sent_b = repeat_best_ref(lambda: _generate(burst, horizon))
    const_rate = sent_c / ref_c
    burst_rate = sent_b / ref_b
    return {
        "arrivals_constant": sent_c,
        "arrivals_burst": sent_b,
        "wall_constant_s": round(wall_c, 6),
        "wall_burst_s": round(wall_b, 6),
        "arrivals_per_s_constant": round(sent_c / wall_c, 1),
        "arrivals_per_s_burst": round(sent_b / wall_b, 1),
        "ref_wall_constant_s": round(ref_c, 6),
        "ref_wall_burst_s": round(ref_b, 6),
        "ref_arrivals_per_s_constant": round(const_rate, 1),
        "ref_arrivals_per_s_burst": round(burst_rate, 1),
        "cost_per_arrival_burst_over_constant": round(
            const_rate / burst_rate, 3),
    }


if __name__ == "__main__":
    print(run(quick=True))
