"""Estimators that turn a run's raw timings into the ledger's metrics.

The machine this benchmark was designed on has two kinds of noise
(README.md, "Noise"):

- from one repetition to the next, the same work takes up to 1.7x as long
  as its fastest repetition; the fastest repetition of a run jumps by
  15-30% between runs while the median of many holds within a few percent;
- for minutes at a time, other tenants slow every core by 1.3-1.7x. No
  estimator over one run's repetitions can undo that, so each run also
  times a fixed reference probe before every repetition, and durations are
  scaled by how much slower than its reference time the probe ran.
"""

import math
import statistics


def median(samples):
    """Median of repeated durations (or of per-query fastest latencies)."""
    if not samples:
        raise ValueError("no repetitions")
    return statistics.median(samples)


def probe_scale(probe_s, reference_s):
    """Factor that maps this run's durations onto the reference speed.

    `probe_s` is the median reference-probe time of the run; a run whose
    probe took 1.4x its reference time has its durations divided by 1.4.
    """
    if probe_s <= 0 or reference_s <= 0:
        raise ValueError("probe times must be positive")
    return reference_s / probe_s


def chunks(samples, count):
    """Splits `samples` into `count` equal consecutive runs (the probes
    taken before each of `count` set-ups)."""
    if count <= 0 or len(samples) % count:
        raise ValueError("%d samples do not split into %d runs"
                         % (len(samples), count))
    size = len(samples) // count
    return [samples[i:i + size] for i in range(0, len(samples), size)]


def tail_percentile(samples, q=0.99, min_beyond=10):
    """Nearest-rank q-quantile and the sample count, or None.

    The percentile is reported only when at least `min_beyond` samples lie
    beyond it; with fewer it would be set by a few outliers.
    """
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1], n
