"""The benchmark's hooks name live code.

``perfbench/run.py`` and ``perfbench/broker_child.py`` wrap package
functions by name. This imports both files as they are, installs and
removes their tracers, and builds the attempt suite the way ``run.main``
does, so that a renamed or moved name fails here and not only in a
benchmark run.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from streamgate import bench, broker, driver, mqtt

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """``run``, ``broker_child`` and ``tracing``; sys.path and sys.modules
    are put back after."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py inserts its src

    def load(name: str, module_name: str):
        spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, module_name, module)  # dataclasses look it up
        spec.loader.exec_module(module)
        return module

    tracing = load("tracing", "tracing")  # as both files import it
    try:
        run = load("run", "perfbench_run")
    except SystemExit as exc:  # streamgate was imported from another tree
        pytest.skip(str(exc.code))
    return run, load("broker_child", "perfbench_broker_child"), tracing


def test_tracers_install_and_restore(perfbench):
    run, broker_child, tracing = perfbench
    originals = (driver.authenticate, mqtt.decode_packet, broker.Broker.route)
    tracer = tracing.Tracer()
    try:
        run.install_bench_tracing(tracer)
        assert driver.authenticate is not originals[0]
    finally:
        tracer.restore()
    trace = broker_child.BrokerTrace(broker, mqtt)
    try:
        assert broker.Broker.route is not originals[2]
    finally:
        trace.tracer.restore()
    assert (driver.authenticate, mqtt.decode_packet, broker.Broker.route) == originals


def test_suite_is_built_as_run_main_builds_it(perfbench):
    run, _, _ = perfbench
    assert run.bench is bench
    rng = random.Random(1)
    secret = run.bench.generate_secret(rng)
    suite = run.bench.generate_suite(secret, rng)
    assert len(suite) == sum(bench.TABLE_SUITE_COUNTS.values())
