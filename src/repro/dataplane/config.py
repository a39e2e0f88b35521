"""Configuration of the ChameleMon data plane.

The data-plane configuration is exactly what the central controller adjusts at
run time when it shifts measurement attention:

* :class:`EncoderLayout` — how the upstream flow encoder's buckets are divided
  between the HH / HL / LL encoders (and, implicitly, how the downstream flow
  encoder is divided between HL / LL), i.e. the *memory* dimension.
* :class:`MonitoringConfig` — the layout plus the classification thresholds
  ``T_h`` / ``T_l`` and the LL sample rate, i.e. the *flows of importance*
  dimension.
* :class:`SwitchResources` — the compile-time constants of an edge switch:
  total buckets per array of the upstream (``m_uf``) and downstream (``m_df``)
  flow encoders, the classifier geometry, and the fixed/ill-state allocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple


@dataclass(frozen=True)
class EncoderLayout:
    """Buckets per array allocated to each part of the flow encoders.

    Invariants (enforced by :meth:`validate`):

    * ``m_hh + m_hl + m_ll == m_uf`` (the upstream encoder is fully divided);
    * ``m_hl + m_ll <= m_df`` (the downstream encoder can mirror the HL and LL
      encoders — it has no HH part).
    """

    m_hh: int
    m_hl: int
    m_ll: int

    @property
    def m_uf(self) -> int:
        return self.m_hh + self.m_hl + self.m_ll

    def validate(self, resources: "SwitchResources") -> None:
        if min(self.m_hh, self.m_hl, self.m_ll) < 0:
            raise ValueError("encoder parts cannot have negative sizes")
        if self.m_uf != resources.upstream_buckets:
            raise ValueError(
                f"layout uses {self.m_uf} upstream buckets per array, expected "
                f"{resources.upstream_buckets}"
            )
        if self.m_hl + self.m_ll > resources.downstream_buckets:
            raise ValueError(
                "HL + LL encoders exceed the downstream flow encoder capacity"
            )
        if self.m_hl <= 0:
            raise ValueError("the HL encoder must always have at least one bucket")

    def to_dict(self) -> dict:
        """JSON-able form, for service checkpoints."""
        return {"m_hh": self.m_hh, "m_hl": self.m_hl, "m_ll": self.m_ll}

    @classmethod
    def from_dict(cls, payload: dict) -> "EncoderLayout":
        return cls(
            m_hh=int(payload["m_hh"]),
            m_hl=int(payload["m_hl"]),
            m_ll=int(payload["m_ll"]),
        )


@dataclass(frozen=True)
class MonitoringConfig:
    """The run-time reconfigurable state of one edge switch."""

    layout: EncoderLayout
    threshold_high: int = 1  # T_h: HH-candidate threshold
    threshold_low: int = 1  # T_l: HL-candidate threshold
    sample_rate: float = 1.0  # sampling probability of LL candidates

    def __post_init__(self) -> None:
        if self.threshold_low < 1 or self.threshold_high < 1:
            raise ValueError("thresholds must be at least 1")
        if self.threshold_low > self.threshold_high:
            raise ValueError("T_l must not exceed T_h")
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")

    def with_layout(self, layout: EncoderLayout) -> "MonitoringConfig":
        return replace(self, layout=layout)

    def describe(self) -> str:
        return (
            f"layout(HH={self.layout.m_hh}, HL={self.layout.m_hl}, LL={self.layout.m_ll}) "
            f"T_h={self.threshold_high} T_l={self.threshold_low} "
            f"sample={self.sample_rate:.3f}"
        )

    def to_dict(self) -> dict:
        """JSON-able form, for service checkpoints."""
        return {
            "layout": self.layout.to_dict(),
            "threshold_high": self.threshold_high,
            "threshold_low": self.threshold_low,
            "sample_rate": self.sample_rate,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MonitoringConfig":
        return cls(
            layout=EncoderLayout.from_dict(payload["layout"]),
            threshold_high=int(payload["threshold_high"]),
            threshold_low=int(payload["threshold_low"]),
            sample_rate=float(payload["sample_rate"]),
        )


@dataclass(frozen=True)
class SwitchResources:
    """Compile-time resources of the ChameleMon data plane on one edge switch.

    The defaults follow the testbed parameter settings (section 5.2), scaled
    by ``scale`` so that laptop-sized experiments stay fast: an 8-bit + 16-bit
    classifier of 32768 + 16384 counters, ``m_uf = 4096`` and ``m_df = 3072``
    buckets per array, a minimum HL reserve of 512 buckets per array in the
    healthy state, and a fixed (1024, 2560, 512) division in the ill state.
    """

    upstream_buckets: int = 4096
    downstream_buckets: int = 3072
    num_arrays: int = 3
    classifier_levels: Tuple[Tuple[int, int], ...] = ((8, 32768), (16, 16384))
    min_hl_buckets: int = 512
    ill_layout: EncoderLayout = field(
        default_factory=lambda: EncoderLayout(m_hh=1024, m_hl=2560, m_ll=512)
    )
    #: The P4 implementation packs a 20-bit fingerprint into the otherwise
    #: unused bits of the IDsum registers (appendix D.1), which suppresses
    #: pure-bucket false positives during decoding.
    fingerprint_bits: int = 20

    @classmethod
    def scaled(cls, scale: float = 1.0, **overrides) -> "SwitchResources":
        """Testbed resources scaled by ``scale`` (all bucket counts multiplied)."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        upstream = max(48, int(4096 * scale))
        downstream = max(36, int(3072 * scale))
        min_hl = max(6, int(512 * scale))
        ill_ll = max(6, int(512 * scale))
        # Rounding can leave HL one bucket past what the downstream encoder
        # holds next to LL; HH takes that bucket back.
        ill_hl = min(upstream - max(12, int(1024 * scale)) - ill_ll, downstream - ill_ll)
        ill_hh = upstream - ill_hl - ill_ll
        classifier = (
            (8, max(64, int(32768 * scale))),
            (16, max(32, int(16384 * scale))),
        )
        defaults = dict(
            upstream_buckets=upstream,
            downstream_buckets=downstream,
            classifier_levels=classifier,
            min_hl_buckets=min_hl,
            ill_layout=EncoderLayout(m_hh=ill_hh, m_hl=ill_hl, m_ll=ill_ll),
        )
        defaults.update(overrides)
        return cls(**defaults)

    def healthy_initial_layout(self) -> EncoderLayout:
        """The healthy-state starting layout: no LL encoder, minimum HL reserve."""
        return EncoderLayout(
            m_hh=self.upstream_buckets - self.min_hl_buckets,
            m_hl=self.min_hl_buckets,
            m_ll=0,
        )

    def initial_config(self) -> MonitoringConfig:
        """The configuration ChameleMon boots with: healthy, everything monitored."""
        return MonitoringConfig(
            layout=self.healthy_initial_layout(),
            threshold_high=1,
            threshold_low=1,
            sample_rate=1.0,
        )

    def validate_layout(self, layout: EncoderLayout) -> None:
        layout.validate(self)
