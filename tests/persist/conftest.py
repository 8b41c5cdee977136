"""Shared fixtures for the persistence test battery.

Training even a tiny estimator dominates these tests' cost, so the
trained pipelines are session-scoped and deliberately miniature
(one epoch, 8-wide hidden layers, a few dozen plans): the battery
exercises serialization exactness, not model quality.
"""

from __future__ import annotations

import pytest

from repro.core import QCFE, QCFEConfig, collect_baselines
from repro.engine.environment import random_environments
from repro.workload.collect import collect_labeled_plans, get_benchmark

ENV_SEED = 3
PLAN_SEED = 1


def _trained(model: str, template_scale: int = 2):
    benchmark = get_benchmark("sysbench")
    envs = random_environments(2, seed=ENV_SEED)
    labeled = collect_labeled_plans(benchmark, envs, 32, seed=PLAN_SEED)
    pipeline = QCFE(
        benchmark,
        envs,
        QCFEConfig(
            model=model,
            epochs=1,
            template_scale=template_scale,
            reduction="diff",
            hidden=(8, 8),
        ),
    )
    pipeline.fit(labeled)
    bundle = pipeline.export_bundle()
    bundle.metadata["recall_baselines"] = collect_baselines(
        pipeline.operator_encoder, labeled
    )
    return {
        "benchmark": benchmark,
        "envs": envs,
        "labeled": labeled,
        "pipeline": pipeline,
        "bundle": bundle,
    }


@pytest.fixture(scope="session")
def qppnet_setup():
    """A trained miniature QPPNet bundle + its training artifacts."""
    return _trained("qppnet")


@pytest.fixture(scope="session")
def qppnet_rescaled_setup():
    """:func:`qppnet_setup`'s bundle refit with twice the template
    scale: another snapshot, so other keep-masks and feature widths."""
    return _trained("qppnet", template_scale=4)


@pytest.fixture(scope="session")
def mscn_setup():
    """A trained miniature MSCN bundle + its training artifacts."""
    return _trained("mscn")
