"""Shared-channel contention: load-dependent effective uplink rates.

The paper prices every transmission with a constant per-user bandwidth
``b`` (formulas (4)/(5)), which silently assumes each user owns private
spectrum.  Multiuser resource-allocation work (You & Huang's TDMA/OFDMA
formulation, Chen et al.'s multi-user offloading game — see PAPERS.md)
shows the rate a user actually gets is *load-dependent*: users
co-offloading to the same server share one wireless channel, so the
effective per-user rate falls as the co-offloading population grows.

:class:`SharedChannel` models that contention deterministically:

* a total channel ``capacity`` (data units/s) shared by all users who
  currently transmit (cut weight > 0);
* a per-user :class:`ChannelQuality` — the channel gain, in the spirit
  of the COSIM device model — collapsed into a normalised spectral
  efficiency via ``log2(1 + gain)``;
* equal-share TDMA access: ``n`` co-offloading users each get a ``1/n``
  time share of the spectrum.

The effective rate is always capped by the device's own uplink ``b_i``
— a generous channel can never make a slow handset upload faster than
its physical link — so a *single* offloading user on a channel with
``capacity >= b_i`` and default quality gets exactly ``b_i``: the
contention-aware evaluation degenerates bit-identically to the paper's
constant-``b`` model (pinned by the parity tests).

Everything here is a pure function of its inputs; the fixed-point
iteration that couples rates to offload decisions lives in
:func:`repro.mec.greedy.generate_offloading_scheme`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Collection, Mapping

from repro.utils.rng import RandomSource
from repro.utils.validation import ensure_positive

PLANNING_ROUNDS = 8
"""Fixed-point budget for rate/placement iteration in the greedy."""


@dataclass(frozen=True)
class ChannelQuality:
    """One user's link quality, reduced to its channel gain.

    The gain plays the part of the link's SNR (transmit power and noise
    both at ``1.0``) and collapses into a normalised spectral efficiency
    ``log2(1 + gain)``, so the default quality (``gain == 1``) is
    exactly ``1.0`` and a user's share of the channel scales with how
    good their link actually is.
    """

    gain: float = 1.0
    """Channel gain between the user and the server."""

    def __post_init__(self) -> None:
        ensure_positive(self.gain, "gain")

    def efficiency(self) -> float:
        """Normalised spectral efficiency ``log2(1 + gain)``."""
        return math.log2(1.0 + self.gain)


@dataclass(frozen=True)
class SharedChannel:
    """A wireless channel shared by every user co-offloading to one server.

    ``rate_for`` is the whole model: under equal-share TDMA, ``n``
    active users each get ``capacity * efficiency_i / n``, capped at
    the device's own uplink bandwidth.
    """

    capacity: float
    """Total channel capacity (data units/s) split among active users."""

    quality: Mapping[str, ChannelQuality] = field(default_factory=dict)
    """Per-user quality overrides; absent users get the default
    (efficiency exactly ``1.0``)."""

    def __post_init__(self) -> None:
        ensure_positive(self.capacity, "capacity")

    # ------------------------------------------------------------------
    def efficiency_for(self, user_id: str) -> float:
        """The user's normalised spectral efficiency."""
        quality = self.quality.get(user_id)
        if quality is None:
            # Default quality: exactly 1.0, with no float round-trip
            # through log2 — the single-user parity guarantee rests on
            # this short-circuit.
            return 1.0
        return quality.efficiency()

    def rate_for(self, user_id: str, n_active: int, device_bandwidth: float) -> float:
        """Effective uplink rate ``b_i(n)`` for one user.

        ``n_active`` is the number of co-offloading users sharing the
        channel (at least 1 — the user themselves).  The share is capped
        at the device's own link rate: spectrum cannot make a handset
        faster than its radio.
        """
        ensure_positive(device_bandwidth, "device_bandwidth")
        n = max(1, n_active)
        share = self.capacity * self.efficiency_for(user_id) / n
        return min(share, device_bandwidth)

    def planning_rates(
        self, bandwidths: Mapping[str, float], active: Collection[str]
    ) -> dict[str, float]:
        """Effective rate for every known user given the active set.

        *bandwidths* maps user id to device uplink bandwidth; *active*
        is the set of users currently transmitting (cut weight > 0).
        Every user — active or not — is priced at ``b_i(n)`` with ``n``
        the active population (min 1), so a planner evaluating "what if
        this user started transmitting" has a rate to hand; the greedy's
        fixed-point loop re-derives ``n`` from each round's outcome.
        """
        n = max(1, len(active))
        return {
            user_id: self.rate_for(user_id, n, bandwidth)
            for user_id, bandwidth in sorted(bandwidths.items())
        }


def make_quality_profile(
    user_ids: Collection[str], spread: float = 0.0, seed: int = 0
) -> dict[str, ChannelQuality]:
    """Deterministic per-user quality profiles for experiments.

    Each user's channel gain is drawn uniformly from
    ``[1 - spread, 1 + spread]`` via a :class:`RandomSource` keyed by
    *seed* and the user id, so profiles replay identically across runs
    and are independent of iteration order.  ``spread == 0`` returns an
    empty mapping (every user at default quality — the parity regime).
    """
    if not 0.0 <= spread < 1.0:
        raise ValueError(f"spread must be in [0, 1), got {spread}")
    if spread == 0.0:
        return {}
    source = RandomSource(seed)
    return {
        user_id: ChannelQuality(
            gain=source.spawn("channel-gain", user_id).uniform(1.0 - spread, 1.0 + spread)
        )
        for user_id in sorted(user_ids)
    }
