"""OBS001 positive fixture: a handover.py module outside any handover/ dir.

The H1 trial and the coverage-loss drill live in experiments/handover.py,
so OBS001 matches the module name as well as the directory. The
wall-clock read also trips DET001, the global-RNG draw also trips DET002,
and the *seeded* Random is still banned.
"""

import random
import time


def sample_trials(trials, rate):
    return [trial for trial in trials if random.random() < rate]


def make_retry_rng(seed):
    return random.Random(seed)


def trial_stamp():
    return time.time()
