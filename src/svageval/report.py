"""Aggregation across datasets and leaderboard report serialization.

The leaderboard score (m-HIoU) is the arithmetic mean of the cross-dataset
mean HOTA and mean mIoU. Reports serialize deterministically: canonical
dataset order, stable key order, floats normalized to 6 significant
digits, and a ``display`` block with 3-decimal percentages.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ._util import format_fixed
from .model import (_COUNT_FIELDS, _RATIO_FIELDS, HotaComponents,
                    TemporalMetrics)
from .spatial import mean_components

DATASET_ORDER: tuple[str, ...] = ("ovis", "mot17", "mot20")


def canonical_dataset_order(names) -> list[str]:
    """ovis, mot17, mot20 first, any extra datasets alphabetically after."""
    names = list(names)
    known = [n for n in DATASET_ORDER if n in names]
    extra = sorted(n for n in names if n not in DATASET_ORDER)
    return known + extra


@dataclass(frozen=True)
class DatasetReport:
    name: str
    spatial: HotaComponents
    temporal: TemporalMetrics
    query_count: int
    referent_count: int

    __hash__ = None


@dataclass(frozen=True)
class FinalReport:
    datasets: tuple[DatasetReport, ...]
    mean_spatial: HotaComponents
    mean_temporal: TemporalMetrics
    m_hiou: float

    __hash__ = None


def cross_dataset_mean(reports) -> tuple[HotaComponents, TemporalMetrics]:
    """Unweighted per-field arithmetic means, regardless of per-dataset
    query counts. Permutation-invariant up to float associativity handled
    by summing in canonical dataset order."""
    reports = list(reports)
    if not reports:
        raise ValueError("cannot average zero dataset reports")
    order = canonical_dataset_order([r.name for r in reports])
    reports.sort(key=lambda r: order.index(r.name))
    spatial = mean_components([r.spatial for r in reports])
    n = len(reports)
    taus = sorted(reports[0].temporal.r1)
    temporal = TemporalMetrics(
        r1={t: sum(r.temporal.r1[t] for r in reports) / n for t in taus},
        r5={t: sum(r.temporal.r5[t] for r in reports) / n for t in taus},
        r10={t: sum(r.temporal.r10[t] for r in reports) / n for t in taus},
        map_at={t: sum(r.temporal.map_at[t] for r in reports) / n
                for t in taus},
        miou=sum(r.temporal.miou for r in reports) / n,
    )
    return spatial, temporal


def m_hiou(hota_mean: float, miou_mean: float) -> float:
    """Arithmetic mean of HOTA and mIoU, both as fractions in [0, 1]."""
    for name, value in (("hota_mean", hota_mean), ("miou_mean", miou_mean)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    return (hota_mean + miou_mean) / 2


def build_final_report(reports) -> FinalReport:
    reports = list(reports)
    order = canonical_dataset_order([r.name for r in reports])
    ordered = sorted(reports, key=lambda r: order.index(r.name))
    spatial, temporal = cross_dataset_mean(ordered)
    return FinalReport(
        datasets=tuple(ordered),
        mean_spatial=spatial,
        mean_temporal=temporal,
        m_hiou=m_hiou(spatial.hota, temporal.miou),
    )


def _sig6(value: float) -> float:
    return float(f"{value:.6g}")


def _spatial_dict(c: HotaComponents) -> dict:
    return {name: _sig6(getattr(c, name))
            for name in _RATIO_FIELDS + _COUNT_FIELDS}


def _temporal_dict(m: TemporalMetrics) -> dict:
    taus = sorted(m.r1)

    def as_table(table):
        return {f"{tau:g}": _sig6(table[tau]) for tau in taus}

    return {
        "r1": as_table(m.r1),
        "r5": as_table(m.r5),
        "r10": as_table(m.r10),
        "map": as_table(m.map_at),
        "miou": _sig6(m.miou),
    }


def report_to_dict(final: FinalReport) -> dict:
    doc = {
        "datasets": {
            r.name: {
                "spatial": _spatial_dict(r.spatial),
                "temporal": _temporal_dict(r.temporal),
                "query_count": r.query_count,
                "referent_count": r.referent_count,
            }
            for r in final.datasets
        },
        "mean": {
            "spatial": _spatial_dict(final.mean_spatial),
            "temporal": _temporal_dict(final.mean_temporal),
        },
        "m_hiou": _sig6(final.m_hiou),
        "display": {
            "m_hiou": format_fixed(final.m_hiou * 100, 3),
            "hota": format_fixed(final.mean_spatial.hota * 100, 3),
            "miou": format_fixed(final.mean_temporal.miou * 100, 3),
            "datasets": {
                r.name: {
                    "hota": format_fixed(r.spatial.hota * 100, 3),
                    "miou": format_fixed(r.temporal.miou * 100, 3),
                }
                for r in final.datasets
            },
        },
    }
    return doc


def render_report(final: FinalReport) -> str:
    return json.dumps(report_to_dict(final), indent=2) + "\n"


def write_report(final: FinalReport, path) -> None:
    """Serialize the report; identical inputs produce byte-identical files."""
    Path(path).write_text(render_report(final), encoding="utf-8")
