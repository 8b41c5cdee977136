"""Shared cluster-test fixtures: one tiny trained Sysbench bundle."""

from __future__ import annotations

import pytest

from repro.core import QCFE, QCFEConfig
from repro.engine.environment import random_environments
from repro.workload.collect import collect_labeled_plans


@pytest.fixture(scope="package")
def cluster_envs():
    return random_environments(2, seed=3)


@pytest.fixture(scope="package")
def cluster_bundle(sysbench, cluster_envs):
    labeled = collect_labeled_plans(sysbench, cluster_envs, 40, seed=1)
    pipeline = QCFE(
        sysbench,
        cluster_envs,
        QCFEConfig(model="qppnet", epochs=2, template_scale=4),
    )
    pipeline.fit(labeled)
    return pipeline.export_bundle(), labeled


@pytest.fixture(scope="package")
def cluster_rescaled_bundle(sysbench, cluster_envs, cluster_bundle):
    """:func:`cluster_bundle`'s data refit at half the template scale:
    another snapshot, so other keep-masks, feature widths and weights."""
    _, labeled = cluster_bundle
    pipeline = QCFE(
        sysbench,
        cluster_envs,
        QCFEConfig(model="qppnet", epochs=3, template_scale=2),
    )
    pipeline.fit(labeled)
    return pipeline.export_bundle()
