"""The consolidated error surface: repro.errors is the canonical home, the
historical per-tier spellings remain the same objects, and core's bad
resolution/strategy/kernel configuration raises SpecError (a ValueError)."""

import numpy as np
import pytest

from repro import errors
from repro.errors import SpecError


class TestOneSurface:
    def test_legacy_spellings_are_the_same_objects(self):
        from repro.cluster.shard import (
            ClusterError,
            RemoteShardError,
            ShardDownError,
            ShardProtocolError,
        )
        from repro.persist.codec import CheckpointError
        from repro.service.hub import HubAtCapacityError, HubError, UnknownStreamError

        assert HubError is errors.HubError
        assert HubAtCapacityError is errors.HubAtCapacityError
        assert UnknownStreamError is errors.UnknownStreamError
        assert ClusterError is errors.ClusterError
        assert ShardDownError is errors.ShardDownError
        assert ShardProtocolError is errors.ShardProtocolError
        assert RemoteShardError is errors.RemoteShardError
        assert CheckpointError is errors.CheckpointError

    def test_hierarchy(self):
        assert issubclass(SpecError, ValueError)
        assert issubclass(errors.HubAtCapacityError, errors.HubError)
        assert issubclass(errors.UnknownStreamError, KeyError)
        assert issubclass(errors.ShardDownError, errors.ClusterError)


class TestCoreRaisesSpecError:
    def test_bad_resolution(self):
        from repro import ASAP, smooth
        from repro.core.preaggregation import preaggregate
        from repro.engine import BatchEngine

        values = np.sin(np.arange(100.0))
        for raiser in (
            lambda: smooth(values, resolution=0),
            lambda: ASAP(resolution=0),
            lambda: BatchEngine(resolution=0),
            lambda: preaggregate(values, resolution=0),
        ):
            with pytest.raises(SpecError, match="resolution"):
                raiser()

    def test_bad_strategy(self):
        from repro import smooth

        with pytest.raises(SpecError, match="strategy"):
            smooth(np.sin(np.arange(100.0)), strategy="annealing")

    def test_run_strategy_keeps_key_error(self):
        # The registry lookup predates the spec and stays a KeyError.
        from repro.core.search import run_strategy

        with pytest.raises(KeyError, match="unknown strategy"):
            run_strategy("annealing", np.ones(100))
