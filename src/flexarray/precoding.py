"""Zero-forcing precoding and single / multi-sector sum-rates.

All multi-sector rates split the total base-station power P equally across
the 3K served streams. Per-sector precoders use unit-norm ZF columns scaled
to carry P/(3K) each, which pairs the P/(3K) numerator with the effective
gain gamma_k = 1 / [(H^H H)^{-1}]_{kk}; intra-sector interference is nulled
exactly, so a user only sees other-sector leakage and noise.
"""

from __future__ import annotations

from itertools import permutations
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .channel import array_blocks, sector_block
from .errors import RankDeficiencyError, _integer, guarded_inverse
from .geometry import _finite_scalar, flex_geometry

if TYPE_CHECKING:  # pragma: no cover
    from .harness import Scenario

NOISE_POWER = 1.0  # every rate depends on P / sigma2 only, so sigma2 is the unit of power
# (sector m, array m') of each cross link, m' != m, in the order the leakage adds them
_CROSS_SECTORS, _CROSS_ARRAYS = np.array(list(permutations(range(3), 2))).T


def _zero_forcing(channel: np.ndarray, precoder: bool = False):
    """Post-ZF gains 1 / [(H^H H)^{-1}]_{kk}, shape (..., K), and, when asked, the
    precoder F = H (H^H H)^{-1} (else None), from one :func:`guarded_inverse` of the
    Grams of a (..., N, K) channel stack; the first refused channel raises with its
    condition number."""
    channel = np.asarray(channel)
    n, k = channel.shape[-2:]
    if k < 1:
        raise ValueError("need k_users >= 1 to zero-force a channel")
    if k > n:
        raise RankDeficiencyError(np.inf, f"cannot zero-force {k} users with {n} antennas")
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite Gram fails the guard
        gram = np.swapaxes(channel.conj(), -1, -2) @ channel
    inv, refusals = guarded_inverse(gram)
    if (failing := np.flatnonzero(refusals)).size:
        raise RankDeficiencyError(float(np.ravel(refusals)[failing[0]]))
    return (channel @ inv if precoder else None), 1.0 / np.diagonal(inv, axis1=-2, axis2=-1).real


def effective_gain(channel: np.ndarray) -> np.ndarray:
    """Post-ZF channel gain of each user, 1 / [(H^H H)^{-1}]_{kk}, shape (K,)."""
    return _zero_forcing(channel)[1]


def single_sector_sumrate(channel: np.ndarray, p_total: float, sigma2: float) -> float:
    """Equal-power ZF sum-rate of one array serving its K users alone."""
    _check_power(p_total, sigma2)
    return _equal_power_rate(effective_gain(channel), p_total, sigma2)


def sector_rate_alone(scenario: "Scenario", sector: int, psi_m: float) -> float:
    """:func:`single_sector_sumrate` of array ``sector``, flexed to ``psi_m``, serving its own
    sector's users with the whole power, from the kept gains (:func:`_own_gains`)."""
    _check_power(scenario.p_total, NOISE_POWER)
    return _equal_power_rate(_own_gains(scenario, sector, psi_m), scenario.p_total, NOISE_POWER)


def _check_power(p_total: float, sigma2: float) -> None:
    if not (0.0 <= p_total < np.inf and 0.0 < sigma2 < np.inf):
        raise ValueError("need finite p_total >= 0 and sigma2 > 0")


def _equal_power_rate(gains: np.ndarray, p_total: float, sigma2: float) -> float:
    """Sum-rate of K users with post-ZF ``gains`` (K,) sharing ``p_total`` equally."""
    return float(np.sum(np.log2(1.0 + p_total * gains / (len(gains) * sigma2))))


def _own_gains(scenario: "Scenario", sector, psi_m) -> np.ndarray:
    """Post-ZF gains (K,) of array ``sector`` flexed to ``psi_m`` to its own sector's users,
    read-only. They depend on neither the SNR nor any leakage, so they are kept on the
    scenario's paths, one dict per (model, array, pattern) by (sector, float hex of psi_m):
    an optimizer that measures a flex angle again, or a scenario at another SNR, reads them.
    A sector other than 0, 1 or 2 and a psi_m that is no finite scalar are refused first."""
    sector, psi_m = _integer(sector, "sector", 0, 2), _finite_scalar(psi_m, "psi")
    kept = scenario.paths.derived(
        (_own_gains, scenario.flex_model, scenario.cfg, scenario.pattern), dict)
    if (gains := kept.get(key := (sector, psi_m.hex()))) is None:
        geometry = flex_geometry(scenario.flex_model, scenario.cfg, psi_m)
        gains = kept[key] = effective_gain(sector_block(scenario, geometry, sector))
        gains.flags.writeable = False
    return gains


def _array_responses(scenario: "Scenario", psi: Sequence[float]) -> np.ndarray:
    """Channel from each array, deformed to its flex angle, to all 3K users: three (N, 3K)
    blocks whose column block m' holds sector m' users, from one geometry batch."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (3,):
        raise ValueError("psi must hold one flex angle per array (3 values)")
    return array_blocks(scenario, flex_geometry(scenario.flex_model, scenario.cfg, psi))


def _sector_state(scenario: "Scenario", psi: Sequence[float]):
    """Per-sector gains, scaled ZF precoders, and cross leakage from one
    channel build of the three arrays, one stacked ZF of the three own-sector blocks and one
    stacked product of the six cross links."""
    k = scenario.k_users
    stream_power = scenario.p_total / (3.0 * k)
    # (array, sector, K, N): the transposed channel blocks, each (K, N) block contiguous
    rows = np.swapaxes(_array_responses(scenario, psi), -1, -2).reshape(3, 3, k, -1)
    own = np.arange(3)
    # C-ordered (N, K) own blocks: the layout, and so the BLAS calls, of one stacked copy each
    f, gains = _zero_forcing(np.ascontiguousarray(np.swapaxes(rows[own, own], -1, -2)),
                             precoder=True)
    precoders = np.sqrt(stream_power) * (f / np.linalg.norm(f, axis=-2, keepdims=True))
    received = rows[_CROSS_ARRAYS, _CROSS_SECTORS].conj() @ precoders[_CROSS_ARRAYS]
    power = np.sum(np.abs(received) ** 2, axis=-1)  # (6, K), the cross links in order
    return gains, power[0::2] + power[1::2], stream_power


def sfp_leakage(scenario: "Scenario", psi: Sequence[float]) -> np.ndarray:
    """Cross-sector leakage power received by every user, shape (3, K).

    Entry (m, k) sums, over both interfering arrays m' != m and their K
    streams, the received power |h_{m',(m,k)}^H f_{m'_i}|^2 with the actual
    scaled ZF columns of sector m'.
    """
    _, leakage, _ = _sector_state(scenario, psi)
    return leakage


def sector_rate_given_leakage(scenario: "Scenario", sector: int, psi_m: float,
                              leakage: np.ndarray) -> float:
    """Sum-rate of one sector under per-sector ZF and fixed received leakage."""
    gains = _own_gains(scenario, sector, psi_m)
    sinr = scenario.p_total / (3.0 * scenario.k_users) * gains / (leakage + NOISE_POWER)
    return float(np.sum(np.log2(1.0 + sinr)))


def jfp_sumrate(scenario: "Scenario", psi: Sequence[float]) -> float:
    """Fully joint ZF over the stacked (3N, 3K) channel with equal power."""
    responses = _array_responses(scenario, psi)
    stacked = responses.reshape(-1, responses.shape[-1])  # a copy: (3N, 3K) in row order
    return single_sector_sumrate(stacked, scenario.p_total, NOISE_POWER)


def sjfp_sumrate(scenario: "Scenario", psi: Sequence[float]) -> float:
    """Per-sector ZF as in SFP, viewed as a joint function of all three flex
    angles: the sum of the three sector rates, each under the cross-sector
    leakage its users receive at ``psi``, so an optimizer can shape it."""
    gains, leakage, stream_power = _sector_state(scenario, psi)
    sinr = stream_power * gains / (leakage + NOISE_POWER)
    per_sector = np.sum(np.log2(1.0 + sinr), axis=1)
    return float(per_sector.sum())
