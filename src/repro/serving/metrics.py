"""Latency metrics for serving experiments."""

from __future__ import annotations

from itertools import chain
from typing import Dict, Optional, Sequence

import numpy as np


def _percentile_label(percentile: float) -> str:
    """``50 -> "p50"``, ``99.9 -> "p99.9"``.

    The seed formatted labels with ``int(p)``, which collapsed fractional
    percentiles onto their integer neighbours (``p99.9`` silently became —
    and collided with — ``"p99"``).
    """
    return f"p{percentile:g}"


def latency_percentiles(
    latencies: Sequence[float], percentiles: Sequence[float] = (50, 90, 99)
) -> Dict[str, float]:
    """Return the requested percentiles of a latency sample (seconds)."""
    values = np.asarray(latencies, dtype=np.float64)
    if values.size == 0:
        return {_percentile_label(p): float("nan") for p in percentiles}
    # One partition for all of them: the same doubles as one call each.
    return {
        _percentile_label(p): float(value)
        for p, value in zip(percentiles, np.percentile(values, percentiles))
    }


def latency_percentile(latencies: Sequence[float], percentile: float) -> float:
    """One percentile of a latency sample (``nan`` for an empty sample).

    The single-value companion of :func:`latency_percentiles`, shared by
    the cluster-layer stats objects so the label scheme lives here only.
    """
    return latency_percentiles(latencies, (percentile,))[
        _percentile_label(percentile)
    ]


def summarize_latencies(latencies: Sequence[float]) -> Dict[str, float]:
    """Median/p90/p99/mean/max summary of a latency sample (seconds).

    An empty sample reports ``nan`` order statistics with a well-defined
    ``count`` of ``0.0`` (the seed reported ``count: nan``, poisoning
    downstream arithmetic that summed counts across models or windows).
    """
    values = np.asarray(latencies, dtype=np.float64)
    if values.size == 0:
        summary = {
            key: float("nan") for key in ("median", "p90", "p99", "mean", "max")
        }
        summary["count"] = 0.0
        return summary
    median, p90, p99 = np.percentile(values, (50, 90, 99)).tolist()
    return {
        "median": median,
        "p90": p90,
        "p99": p99,
        "mean": float(values.mean()),
        "max": float(values.max()),
        "count": float(values.size),
    }


def attainment_within(latencies: Sequence[float], slo_seconds: float) -> float:
    """Fraction of requests whose response time met a latency SLO.

    The latency-SLO twin of :func:`slo_attainment` (which scores absolute
    per-request deadlines): here every request shares one response-time
    budget.  ``nan`` entries mark dropped requests and count as misses —
    they were admitted and not served in time.  Returns ``nan`` for an
    empty sample; refuses a NaN or negative ``slo_seconds`` (no latency is
    ever <= NaN).  Used by the cluster control plane for windowed and
    whole-run SLO reporting.
    """
    slo = float(slo_seconds)
    if not slo >= 0:
        raise ValueError(f"slo_seconds must be a number >= 0 (got {slo_seconds!r})")
    values = np.asarray(latencies, dtype=np.float64)
    if values.size == 0:
        return float("nan")
    return np.count_nonzero(values <= slo) / values.size


def summarize_migrations(responses) -> Dict[str, float]:
    """Migration accounting over a run's recorded responses.

    ``responses`` is an iterable of :class:`~repro.serving.engine.Response`
    objects (``None`` entries — unserved slots — are skipped).  Counts the
    requests that were preempted off a failing/deactivated server at least
    once (``migrated_requests``), the total number of moves (``moves``, >=
    ``migrated_requests`` since a request can migrate repeatedly), and how
    the migrants ended: re-served (``served_after_migration``) or dropped
    after the move (``dropped_after_migration``).  All values are floats
    for symmetry with the other summaries.  ``None`` (a run without recorded
    responses) and the empty list both summarize to all-zeros.
    """
    if responses is None:
        responses = ()
    moved = [r for r in responses if r is not None and r.migrations > 0]
    return {
        "migrated_requests": float(len(moved)),
        "moves": float(sum(r.migrations for r in moved)),
        "max_moves": float(max((r.migrations for r in moved), default=0)),
        "served_after_migration": float(
            sum(1 for r in moved if not r.dropped)
        ),
        "dropped_after_migration": float(sum(1 for r in moved if r.dropped)),
    }


def streaming_summary(
    token_times: Sequence[Sequence[float]],
    arrivals: Sequence[float],
    duration: Optional[float] = None,
    percentiles: Sequence[float] = (50, 99),
) -> Dict[str, float]:
    """Per-token streaming metrics over generated-token timestamps.

    ``token_times`` holds one ascending timestamp list per request (the
    emission time of each generated token, the first being the prefill's);
    ``arrivals`` the matching arrival times.  Requests with no tokens
    (dropped, or still queued) contribute nothing to the latency samples
    but stay in ``requests``.  Reported:

    * ``ttft_p*`` — time to first token (first timestamp minus arrival);
    * ``inter_token_p*`` — gaps between consecutive tokens of the same
      request, pooled across requests.  Prefill-only and single-token
      sequences have no gaps and contribute nothing (all such runs report
      ``nan``);
    * ``tokens_per_sec`` — total generated tokens per second of ``duration``
      (defaulting to the last token time; ``0.0`` when no time elapsed);
    * ``tokens`` / ``requests`` — sample sizes behind the rates.

    Empty ``percentiles`` yields only the rate/count fields.
    """
    if len(token_times) != len(arrivals):
        raise ValueError("token_times and arrivals must have the same length")
    lengths = np.fromiter(map(len, token_times), dtype=np.intp, count=len(token_times))
    total_tokens = int(lengths.sum())
    times = np.fromiter(
        chain.from_iterable(token_times), dtype=np.float64, count=total_tokens
    )
    served = lengths > 0
    ends = np.cumsum(lengths)[served]  # one past each served request's last token
    ttfts = times[ends - lengths[served]] - np.asarray(arrivals, dtype=np.float64)[served]
    # One difference over the whole stream; the ones that straddle two
    # requests (a request's last token to the next one's first) go.
    gaps = np.delete(np.diff(times), ends[:-1] - 1)
    last = max(0.0, float(times[ends - 1].max())) if len(ends) else 0.0
    if duration is None:
        duration = last
    summary: Dict[str, float] = {}
    for label, values in (("ttft", ttfts), ("inter_token", gaps)):
        for key, value in latency_percentiles(values, percentiles).items():
            summary[f"{label}_{key}"] = value
    summary["tokens_per_sec"] = (
        total_tokens / float(duration) if duration and duration > 0 else 0.0
    )
    summary["tokens"] = float(total_tokens)
    summary["requests"] = float(len(arrivals))
    return summary


def slo_attainment(
    finish_times: Sequence[float], deadlines: Sequence[Optional[float]]
) -> float:
    """Fraction of deadline-carrying requests that finished in time.

    ``finish_times`` may contain ``nan`` for dropped requests (they count as
    misses when they carry a deadline); ``deadlines`` entries of ``None`` or
    ``nan`` are excluded from the population.  Returns ``nan`` when nothing
    carries a deadline.
    """
    finishes = np.asarray(finish_times, dtype=np.float64)
    dl = np.asarray(deadlines, dtype=np.float64)  # None reads as nan
    if finishes.shape != dl.shape:
        raise ValueError("finish_times and deadlines must have the same length")
    has_deadline = ~np.isnan(dl)
    total = int(has_deadline.sum())
    if total == 0:
        return float("nan")
    met = np.count_nonzero(
        has_deadline & ~np.isnan(finishes) & (finishes <= dl)
    )
    return met / total
