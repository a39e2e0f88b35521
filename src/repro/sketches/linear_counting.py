"""Linear counting — cardinality estimation from a counter array.

ChameleMon estimates the number of flows by applying the linear-counting
algorithm (Whang et al., TODS 1990) to the counter array with the most
counters in the TowerSketch, and estimates the number of victim flows by
applying it to a bucket array of a delta FermatSketch when decoding fails.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def linear_counting_estimate(num_slots: int, num_empty: int) -> float:
    """Estimate distinct keys hashed into ``num_slots`` slots given empty slots.

    The estimator is ``m * ln(m / z)`` where ``m`` is the number of slots and
    ``z`` the number of empty slots.  When no slot is empty the estimator is
    undefined; we return the coupon-collector style upper bound ``m * ln(m)``
    plus one, which is the conventional saturation fallback.
    """
    if num_slots <= 0:
        raise ValueError("num_slots must be positive")
    if num_empty < 0 or num_empty > num_slots:
        raise ValueError("num_empty must be between 0 and num_slots")
    if num_empty == 0:
        return num_slots * math.log(num_slots) + 1.0
    return num_slots * math.log(num_slots / num_empty)


def estimate_cardinality(counters: Sequence[int]) -> float:
    """Linear-counting estimate from raw counters (empty == counter is zero)."""
    num_slots = len(counters)
    num_empty = num_slots - int(np.count_nonzero(counters))
    return linear_counting_estimate(num_slots, num_empty)


def estimate_flows_per_bucket_array(bucket_counts: Sequence[int]) -> float:
    """Estimate flows recorded in one FermatSketch bucket array.

    Used by the controller when a delta encoder fails to decode: the number of
    flows hashed into an array of ``m`` buckets is estimated from the number
    of still-empty buckets.
    """
    return estimate_cardinality(bucket_counts)
