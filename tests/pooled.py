"""The slow Monte Carlo tests' estimates, run through the worker pool.

``estimate_advantage(..., workers=k)`` gives the report a serial run gives;
``pooled_estimate`` pins that on a 500-trial prefix of each estimate before
it spreads the full run over up to two workers (one on a 1-core host).
"""

import os

from rfidlab.game import estimate_advantage

WORKERS = min(2, os.cpu_count() or 1)
PINNED_TRIALS = 500


def pooled_estimate(protocol, strategy, params, trials, seed):
    prefix = (protocol, strategy, params, PINNED_TRIALS)
    serial = estimate_advantage(*prefix, seed=seed, timestamp=False)
    pooled = estimate_advantage(*prefix, seed=seed, timestamp=False, workers=2)
    assert pooled.to_dict() == serial.to_dict()
    return estimate_advantage(protocol, strategy, params, trials, seed=seed, workers=WORKERS)
