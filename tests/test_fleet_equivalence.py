"""Property-based equivalence suite for the fleet and fast-engine kernels.

The determinism contract under test: the vectorized fast kernels and the
discrete-event reference engine, fed identical generated request arrays,
produce **bit-identical** results -- not approximately equal ones.  Randomized
(but seeded, via hypothesis) configurations sweep cluster policies, arrival
processes, parallelism, and fleet shapes; any counterexample shrinks to a
minimal reproducing configuration.

Every equivalence class runs twice: as written, on the default kernels (the
compiled ones wherever a compiler is available), and as a ``...PythonKernel``
subclass with the compiled library monkeypatched away, on the pure-Python
kernels.
"""

import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import (
    Datacenter,
    FleetConfig,
    FleetSimulation,
    LoadShape,
    Region,
    RequestClass,
)
from repro.obs.tracer import Tracer, use_tracer
from repro.runtime.executor import SweepExecutor
from repro.service import native
from repro.service.cluster import (
    ClusterConfig,
    balanced_completion_times,
    balanced_completion_times_python,
    fcfs_completion_times,
    fcfs_completion_times_python,
    serve,
    serve_event,
    simulate_cluster,
)

HAS_COMPILER = shutil.which(native.COMPILER) is not None
needs_compiler = pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler")


@pytest.fixture(scope="class")
def python_kernel():
    """Run a test class on the pure-Python kernels (no compiled library)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "_library", None)
        yield

# ---------------------------------------------------------------- strategies

cluster_configs = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(["jsq", "po2", "random", "round_robin"]),
        "num_servers": st.integers(min_value=1, max_value=6),
        "parallelism": st.integers(min_value=1, max_value=3),
        "utilization": st.floats(min_value=0.2, max_value=1.15),
        "arrival": st.sampled_from(["poisson", "mmpp"]),
        "seed": st.integers(min_value=0, max_value=2**20),
    }
)

fleet_shapes = st.fixed_dictionaries(
    {
        "routing": st.sampled_from(["nearest", "latency_weighted", "spillover"]),
        "policy": st.sampled_from(["jsq", "po2", "random", "round_robin"]),
        "arrival": st.sampled_from(["poisson", "mmpp"]),
        "num_epochs": st.integers(min_value=1, max_value=3),
        "offered_qps": st.floats(min_value=50.0, max_value=400.0),
        "seed": st.integers(min_value=0, max_value=2**20),
    }
)


def _cluster_config(params) -> ClusterConfig:
    num_servers = params["num_servers"]
    parallelism = params["parallelism"]
    service_mean_s = 0.01
    capacity = num_servers * parallelism / service_mean_s
    return ClusterConfig(
        num_servers=num_servers,
        parallelism=parallelism,
        service_mean_s=service_mean_s,
        offered_qps=params["utilization"] * capacity,
        policy=params["policy"],
        arrival=params["arrival"],
        arrival_kwargs=(
            {"burstiness": 3.0, "burst_fraction": 0.25, "mean_phase_s": 0.05}
            if params["arrival"] == "mmpp"
            else {}
        ),
    )


def _fleet_config(params) -> FleetConfig:
    datacenters = (
        Datacenter(
            "east", Region("east", 0.0, 0.0), num_servers=3, parallelism=2,
            service_mean_s=0.01, policy=params["policy"],
        ),
        Datacenter(
            "west", Region("west", 1.0, 0.5), num_servers=2, parallelism=1,
            service_mean_s=0.012, policy=params["policy"],
        ),
    )
    return FleetConfig(
        datacenters=datacenters,
        offered_qps=params["offered_qps"],
        routing=params["routing"],
        load_shape=LoadShape((1.4, 0.6, 1.0)[: params["num_epochs"]], epoch_s=3.0),
        arrival=params["arrival"],
        arrival_kwargs=(
            {"burstiness": 4.0, "burst_fraction": 0.2, "mean_phase_s": 1.0}
            if params["arrival"] == "mmpp"
            else {}
        ),
        origin_weights=(0.7, 0.3),
    )


def _assert_fleet_identical(first, second) -> None:
    """Bitwise equality of two fleet results (samples, histograms, counts)."""
    assert first.total_requests == second.total_requests
    assert first.network_sum_s == second.network_sum_s
    for name in first.class_samples:
        assert np.array_equal(
            np.array(first.class_samples[name]),
            np.array(second.class_samples[name]),
        )
    for name, histogram in first.datacenter_histograms.items():
        other = second.datacenter_histograms[name]
        assert np.array_equal(histogram.counts, other.counts)
        assert histogram.sum_s == other.sum_s
        assert histogram.max_s == other.max_s
    for mine, theirs in zip(first.epoch_stats, second.epoch_stats):
        assert mine.requests == theirs.requests
        assert mine.busy_s == theirs.busy_s
        assert mine.servers == theirs.servers


# ------------------------------------------------------------------ cluster


class TestClusterEngineEquivalence:
    """Fast kernels == event engine on randomized cluster configurations."""

    @given(params=cluster_configs)
    @settings(max_examples=25, deadline=None)
    def test_fast_matches_event_bitwise(self, params):
        """Sorted latencies, routing counts, and duration are bit-identical
        across engines for every policy and arrival process."""
        config = _cluster_config(params)
        fast = simulate_cluster(config, num_requests=400, seed=params["seed"], engine="fast")
        event = simulate_cluster(config, num_requests=400, seed=params["seed"], engine="event")
        assert np.array_equal(
            np.sort(np.array(fast.latency.samples)),
            np.sort(np.array(event.latency.samples)),
        )
        assert fast.per_server_counts == event.per_server_counts
        assert fast.duration_s == event.duration_s


class _Recorder:
    """Collector duck-type keeping each request's (server, latency)."""

    def __init__(self, count: int):
        self.servers = [None] * count
        self.latencies = [None] * count

    def record(self, request_index: int, server_id: int, latency_s: float) -> None:
        self.servers[request_index] = server_id
        self.latencies[request_index] = latency_s


# Exact binary fractions, so ties are real ties: four simultaneous arrivals
# on an idle cluster (JSQ backlog ties), arrivals landing exactly on earlier
# completions (the kernel drains with a strict ``<``), and bursts that queue.
_TIE_ARRIVALS = [
    0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.5, 2.0,
    2.0, 2.5, 3.0, 3.0, 3.0, 3.0, 3.5, 4.0, 4.0, 6.0,
]
_TIE_SERVICES = [
    1.0, 1.0, 2.0, 0.5, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0,
    1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 2.0, 1.0,
]


class TestServeEdgeCases:
    """The serving seam on a hand-built stream with exact timestamp ties."""

    @pytest.mark.parametrize("policy", ["jsq", "po2", "random", "round_robin"])
    @pytest.mark.parametrize("num_servers, parallelism", [(1, 1), (1, 2), (3, 1), (3, 2)])
    def test_serve_matches_serve_event_on_ties(self, policy, num_servers, parallelism):
        """Per-request latency and server choice are bit-identical between
        :func:`serve` and its event oracle, ties and single server included."""
        completions, assignment = serve(
            _TIE_ARRIVALS, _TIE_SERVICES, policy, num_servers, parallelism,
            random.Random(7),
        )
        recorder = _Recorder(len(_TIE_ARRIVALS))
        serve_event(
            _TIE_ARRIVALS, _TIE_SERVICES, policy, num_servers, parallelism,
            random.Random(7), recorder,
        )
        assert set(_TIE_ARRIVALS) & set(completions.tolist())  # the stream hits the edge
        assert assignment.tolist() == recorder.servers
        assert (completions - np.array(_TIE_ARRIVALS)).tolist() == recorder.latencies

    @pytest.mark.parametrize("policy", ["jsq", "po2", "random", "round_robin"])
    @pytest.mark.parametrize(
        "num_servers, parallelism, count",
        [(200, 1, 3000), (200, 8, 3000), (4, 8, 2000), (3, 1, 1), (1, 8, 1)],
    )
    def test_serve_matches_serve_event_on_generated_streams(
        self, policy, num_servers, parallelism, count
    ):
        """JSQ over 200 servers, eight units per server, and a one-request
        stream: latency, server choice and the routing stream left behind are
        bit-identical to the event oracle."""
        rng = np.random.default_rng(count + num_servers)
        capacity = num_servers * parallelism / 0.01
        arrivals = np.cumsum(rng.exponential(1.0 / (0.9 * capacity), count))
        services = rng.exponential(0.01, count)
        fast_rng, event_rng = random.Random(11), random.Random(11)
        completions, assignment = serve(
            arrivals, services, policy, num_servers, parallelism, fast_rng
        )
        recorder = _Recorder(count)
        serve_event(
            arrivals, services, policy, num_servers, parallelism, event_rng, recorder
        )
        assert completions.dtype == np.float64 and assignment.dtype == np.int64
        assert assignment.tolist() == recorder.servers
        assert (completions - arrivals).tolist() == recorder.latencies
        assert fast_rng.getstate() == event_rng.getstate()
        if num_servers == 200 and policy == "jsq":
            assert len(set(recorder.servers)) == 200


@pytest.mark.usefixtures("python_kernel")
class TestClusterEngineEquivalencePythonKernel(TestClusterEngineEquivalence):
    """:class:`TestClusterEngineEquivalence` on the pure-Python kernels.

    Hypothesis tests are declared again, not inherited: one ``@given`` test
    run from two classes fails hypothesis's differing-executors check.
    """

    @given(params=cluster_configs)
    @settings(max_examples=25, deadline=None)
    def test_fast_matches_event_bitwise(self, params):
        _base = TestClusterEngineEquivalence.test_fast_matches_event_bitwise
        _base.hypothesis.inner_test(self, params)


@pytest.mark.usefixtures("python_kernel")
class TestServeEdgeCasesPythonKernel(TestServeEdgeCases):
    """:class:`TestServeEdgeCases` on the pure-Python kernels."""


# -------------------------------------------------------------------- fleet


class TestFleetEngineEquivalence:
    """Fleet days replay bit-identically on the fast and event engines."""

    @given(params=fleet_shapes)
    @settings(max_examples=15, deadline=None)
    def test_fast_matches_event_bitwise(self, params):
        """Per-class samples, per-site histograms, and per-epoch cells agree
        bitwise between the two engines on randomized fleet days."""
        config = _fleet_config(params)
        fast = FleetSimulation(
            config, seed=params["seed"], engine="fast", collect_samples=True
        ).run()
        event = FleetSimulation(
            config, seed=params["seed"], engine="event", collect_samples=True
        ).run()
        assert fast.engine == "fast" and event.engine == "event"
        _assert_fleet_identical(fast, event)

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        epochs=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_empty_shape_is_stationary_baseline(self, seed, epochs):
        """The empty LoadShape and an explicit all-ones flat trace produce
        byte-identical days: modulation composes onto, never perturbs."""
        datacenters = (
            Datacenter(
                "solo", Region("solo"), num_servers=3, parallelism=2,
                service_mean_s=0.01, policy="jsq",
            ),
        )
        stationary = FleetConfig(
            datacenters=datacenters, offered_qps=300.0, num_epochs=epochs,
            load_shape=LoadShape((), epoch_s=2.0),
        )
        flat = FleetConfig(
            datacenters=datacenters, offered_qps=300.0,
            load_shape=LoadShape.flat(epochs, epoch_s=2.0),
        )
        first = FleetSimulation(stationary, seed=seed, collect_samples=True).run()
        second = FleetSimulation(flat, seed=seed, collect_samples=True).run()
        _assert_fleet_identical(first, second)

    def test_identical_seeds_identical_days(self):
        """Re-running the same configuration and seed reproduces the day."""
        config = _fleet_config(
            {
                "routing": "spillover",
                "policy": "po2",
                "arrival": "mmpp",
                "num_epochs": 3,
                "offered_qps": 250.0,
                "seed": 0,
            }
        )
        first = FleetSimulation(config, seed=9, collect_samples=True).run()
        second = FleetSimulation(config, seed=9, collect_samples=True).run()
        _assert_fleet_identical(first, second)


@pytest.mark.usefixtures("python_kernel")
class TestFleetEngineEquivalencePythonKernel(TestFleetEngineEquivalence):
    """:class:`TestFleetEngineEquivalence` on the pure-Python kernels
    (hypothesis tests declared again, as in the cluster variant)."""

    @given(params=fleet_shapes)
    @settings(max_examples=15, deadline=None)
    def test_fast_matches_event_bitwise(self, params):
        _base = TestFleetEngineEquivalence.test_fast_matches_event_bitwise
        _base.hypothesis.inner_test(self, params)

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        epochs=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_empty_shape_is_stationary_baseline(self, seed, epochs):
        _base = TestFleetEngineEquivalence.test_empty_shape_is_stationary_baseline
        _base.hypothesis.inner_test(self, seed, epochs)


# ---------------------------------------------------------- compiled kernel


def _stream(seed: int, count: int, num_servers: int, parallelism: int):
    rng = np.random.default_rng(seed)
    capacity = num_servers * parallelism / 0.01
    arrivals = np.cumsum(rng.exponential(1.0 / (0.95 * capacity), count))
    # Whole milliseconds: many completions land exactly on later arrivals.
    arrivals = np.round(arrivals, 3)
    return arrivals, rng.exponential(0.01, count)


@pytest.fixture
def private_cache(tmp_path, monkeypatch):
    """Build into an empty private cache directory, from a fresh process state."""
    directory = tmp_path / "cache"
    directory.mkdir(mode=0o700)
    monkeypatch.setattr(native, "cache_directory", lambda: directory)
    monkeypatch.setattr(native, "_library", native._UNLOADED)
    return directory


class TestCompiledKernel:
    """The C kernels against their pure-Python oracles, and the build rules."""

    @needs_compiler
    @pytest.mark.parametrize("policy", ["jsq", "po2"])
    @pytest.mark.parametrize(
        "num_servers, parallelism", [(1, 1), (2, 1), (3, 2), (27, 4), (200, 1), (5, 8)]
    )
    def test_balanced_kernel_matches_python_oracle(self, policy, num_servers, parallelism):
        assert native.load() is not None
        arrivals, services = _stream(num_servers * 10 + parallelism, 5000, num_servers, parallelism)
        c_rng, python_rng = random.Random(3), random.Random(3)
        completions, assignment = balanced_completion_times(
            arrivals, services, policy, num_servers, parallelism, c_rng
        )
        expected, expected_assignment = balanced_completion_times_python(
            arrivals.tolist(), services.tolist(), policy, num_servers, parallelism,
            python_rng,
        )
        assert completions.tobytes() == np.array(expected).tobytes()
        assert assignment.tolist() == expected_assignment
        assert c_rng.getstate() == python_rng.getstate()

    @needs_compiler
    @pytest.mark.parametrize("num_servers, parallelism", [(1, 1), (3, 2), (17, 8)])
    def test_fcfs_kernel_matches_python_oracle(self, num_servers, parallelism):
        assert native.load() is not None
        arrivals, services = _stream(num_servers, 5000, num_servers, parallelism)
        assignment = np.random.default_rng(1).integers(0, num_servers, arrivals.size)
        completions = fcfs_completion_times(
            arrivals, services, assignment, num_servers, parallelism
        )
        expected = fcfs_completion_times_python(
            arrivals.tolist(), services.tolist(), assignment.tolist(), num_servers,
            parallelism,
        )
        assert completions.tobytes() == np.array(expected).tobytes()

    @needs_compiler
    def test_compiled_kernels_reject_what_they_cannot_index(self):
        """Pointers reach C only for equal-length streams, positive sizes and
        in-range server ids; anything else raises before the call."""
        assert native.load() is not None
        arrivals, services = [0.0, 1.0, 2.0], [1.0, 1.0, 1.0]
        cases = [
            lambda: fcfs_completion_times(arrivals, services, [0, 2, 1], 2, 1),
            lambda: fcfs_completion_times(arrivals, services, [0, -1, 1], 2, 1),
            lambda: fcfs_completion_times(arrivals, services, [0, 1], 2, 1),
            lambda: fcfs_completion_times(arrivals, services[:2], [0, 1, 0], 2, 1),
            lambda: balanced_completion_times(arrivals, services[:2], "jsq", 2, 1, None),
            lambda: balanced_completion_times(arrivals, services, "jsq", 2, 0, None),
            lambda: balanced_completion_times(arrivals, services, "jsq", 0, 1, None),
        ]
        for case in cases:
            with pytest.raises(ValueError):
                case()

    @pytest.mark.parametrize("policy", ["jsq", "po2", "random", "round_robin"])
    def test_serve_counts_the_kernel_it_ran(self, policy):
        arrivals, services = _stream(5, 300, 3, 2)
        tracer = Tracer()
        with use_tracer(tracer):
            for _ in range(3):
                serve(arrivals, services, policy, 3, 2, random.Random(1))
        ran, idle = ("python", "c") if native.load() is None else ("c", "python")
        counters = tracer.counters()
        assert counters[f"service.kernel.{ran}"] == 3
        assert f"service.kernel.{idle}" not in counters

    @pytest.mark.parametrize("failure", ["missing compiler", "compile error"])
    def test_failed_build_falls_back_bit_identically_and_is_counted(
        self, failure, private_cache, monkeypatch
    ):
        if failure == "compile error" and not HAS_COMPILER:
            pytest.skip("no C compiler")
        arrivals, services = _stream(9, 2000, 4, 2)
        expected = {
            policy: serve(arrivals, services, policy, 4, 2, random.Random(2))
            for policy in ("jsq", "po2", "random")
        }
        monkeypatch.setattr(native, "_library", native._UNLOADED)
        if failure == "missing compiler":
            monkeypatch.setattr(native, "COMPILER", "/nonexistent/bin/gcc")
        else:
            monkeypatch.setattr(native, "FLAGS", (*native.FLAGS, "-fno-such-flag"))
        tracer = Tracer()
        with use_tracer(tracer):
            for policy, (completions, assignment) in expected.items():
                fallback, fallback_assignment = serve(
                    arrivals, services, policy, 4, 2, random.Random(2)
                )
                assert fallback.tobytes() == completions.tobytes()
                assert np.array_equal(fallback_assignment, assignment)
        counters = tracer.counters()
        assert counters["service.kernel.build_failures"] == 1
        assert counters["service.kernel.python"] == 3
        assert "service.kernel.c" not in counters
        assert not list(private_cache.glob(".kernels-*"))  # no half-written build left

    @needs_compiler
    def test_build_is_keyed_published_whole_and_reused(self, private_cache, monkeypatch):
        assert native.load() is not None
        (library,) = private_cache.iterdir()
        assert library.name.startswith("kernels-") and library.suffix == ".so"
        built = library.stat()
        # A fresh process state finds the library and never runs the compiler.
        run = subprocess.run
        monkeypatch.setattr(native, "_library", native._UNLOADED)
        monkeypatch.setattr(subprocess, "run", _no_compiler_runs)
        assert native.load() is not None
        assert library.stat().st_ino == built.st_ino
        # Other flags are another key: a second library beside the first.
        monkeypatch.setattr(subprocess, "run", run)
        monkeypatch.setattr(native, "_library", native._UNLOADED)
        monkeypatch.setattr(native, "FLAGS", (*native.FLAGS, "-g0"))
        assert native.load() is not None
        assert len(list(private_cache.iterdir())) == 2

    @needs_compiler
    def test_library_writable_by_others_is_rebuilt_not_loaded(self, private_cache):
        assert native.load() is not None
        (library,) = private_cache.iterdir()
        library.chmod(0o666)
        tampered = library.stat().st_ino
        native._library = native._UNLOADED
        assert native.load() is not None
        (rebuilt,) = private_cache.iterdir()
        assert rebuilt.stat().st_ino != tampered
        assert not rebuilt.stat().st_mode & 0o022

    def test_cache_directory_is_never_shared(self, tmp_path):
        private = tmp_path / "private"
        assert native.cache_directory(private) == private
        assert private.stat().st_mode & 0o777 == 0o700
        shared = tmp_path / "shared"
        shared.mkdir()
        shared.chmod(0o777)
        linked = tmp_path / "linked"
        linked.symlink_to(private)
        for unsafe in (shared, linked):
            fallback = native.cache_directory(unsafe)
            assert fallback not in (shared, linked, private)
            assert fallback.stat().st_uid == os.geteuid()
            assert not fallback.stat().st_mode & 0o077

    def test_import_never_compiles(self, tmp_path):
        """Importing the fleet and service layers builds nothing and loads
        no library; the first kernel call does."""
        code = (
            "import repro.fleet, repro.service.cluster\n"
            "from repro.service import native\n"
            "assert native._library is native._UNLOADED\n"
        )
        env = {**os.environ, "HOME": str(tmp_path), "PYTHONPATH": str(SRC)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        assert not (tmp_path / ".cache").exists()


SRC = Path(__file__).resolve().parents[1] / "src"


def _no_compiler_runs(*args, **kwargs):
    raise AssertionError(f"the compiler ran: {args}")


# ------------------------------------------------------- executor invariance


def _fleet_day_requests(seed: int) -> int:
    """One tiny fleet day's request count (module-level: picklable)."""
    config = FleetConfig(
        datacenters=(
            Datacenter(
                "east", Region("east"), num_servers=2, parallelism=2,
                service_mean_s=0.01, policy="jsq",
            ),
        ),
        offered_qps=200.0,
        load_shape=LoadShape((1.5, 0.5), epoch_s=2.0),
    )
    return FleetSimulation(config, seed=seed).run().total_requests


class TestExecutorInvariance:
    """Serial and process-parallel sweeps produce identical fleet results."""

    def test_serial_equals_parallel(self):
        """Fleet days are pure functions of (config, seed): fan-out across
        processes must not change a single result."""
        points = [(seed,) for seed in range(6)]
        serial = SweepExecutor(mode="serial").map(_fleet_day_requests, points)
        parallel = SweepExecutor(mode="process", max_workers=3).map(
            _fleet_day_requests, points
        )
        assert serial == parallel


# ----------------------------------------------------------- study-level


class TestStudyEquivalence:
    """The catalog studies accept engine overrides and agree across them."""

    def test_diurnal_study_rows_match_event_engine(self):
        """A small diurnal-day study produces identical rows on both engines
        (rows only carry histogram-derived and count statistics)."""
        from repro.experiments.fleet import fleet_diurnal_day

        kwargs = dict(offered_qps=400.0, epoch_s=0.5)
        assert fleet_diurnal_day(engine="fast", **kwargs) == fleet_diurnal_day(
            engine="event", **kwargs
        )
