"""Torus geometry, RNG stream keying, time grid, and config parsing."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaoslab.cli import main
from chaoslab import dynamics
from chaoslab.core import (
    BLOCK_REPLICAS,
    MAX_ENSEMBLE_ELEMENTS,
    MAX_EUCLIDEAN_DIM,
    ConfigError,
    DomainSpec,
    InitialLaw,
    RngStream,
    TimeGrid,
    _pop_key,
    _reject_unknown,
    config_from_dict,
    load_json,
    sample_initial,
    sum_last_axis,
    torus_displacement,
    wrap_torus,
)

SHIPPED_CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def make_config_dict(**overrides):
    base = {
        "domain": {"kind": "torus", "dim": 2},
        "n_particles": 4,
        "grid": {"dt": 0.01, "steps": 10},
        "noise": {"kind": "brownian"},
        "initial_law": {"name": "uniform"},
        "seed": 7,
        "replicas": 16,
        "kernel": {"name": "smooth_divfree", "params": {"frequency": 1}},
    }
    base.update(overrides)
    return base


class TestWrap:
    @given(finite_floats)
    def test_range(self, x):
        w = wrap_torus(np.array([x]))[0]
        assert -0.5 <= w < 0.5

    @given(finite_floats)
    def test_idempotent(self, x):
        w1 = wrap_torus(np.array([x]))
        assert np.array_equal(wrap_torus(w1), w1)

    @given(finite_floats, st.integers(min_value=-3, max_value=3))
    def test_integer_shift_invariance(self, x, m):
        a = wrap_torus(np.array([x]))[0]
        b = wrap_torus(np.array([x + m]))[0]
        assert math.isclose(a, b, abs_tol=1e-9)

    def test_shape_preserved(self):
        x = np.arange(12, dtype=float).reshape(3, 4) / 7.0
        assert wrap_torus(x).shape == (3, 4)


@pytest.mark.parametrize("d", range(1, 11))
def test_sum_last_axis_matches_the_reduction_bit_for_bit(d):
    # signed zeros, a large term that absorbs small ones in order (numpy sums
    # pairwise from 8 terms on), and a strided view
    gen = np.random.default_rng(d)
    a = gen.normal(size=(64, 5, d)) * 10.0 ** gen.integers(-8, 9, size=(64, 5, d))
    a[gen.random(a.shape) < 0.3] = -0.0
    a[gen.random(a.shape) < 0.1] = 0.0
    a[0, 0] = -0.0
    a[0, 1] = 1.0
    a[0, 1, 0] = 1e16
    for arr in (a, a[::2, :, ::-1], a[0, 0]):
        want = np.add.reduce(arr, axis=-1)
        assert np.array_equal(np.asarray(sum_last_axis(arr)).view(np.int64), np.asarray(want).view(np.int64))


class TestDisplacement:
    @given(
        st.floats(min_value=-0.5, max_value=0.499),
        st.floats(min_value=-0.5, max_value=0.499),
    )
    def test_antisymmetric_mod_one(self, x, y):
        d1 = torus_displacement(np.array([x]), np.array([y]))
        d2 = torus_displacement(np.array([y]), np.array([x]))
        # equal up to a full winding; away from the seam the sum is 0
        assert np.allclose(wrap_torus(d1 + d2), 0.0, atol=1e-12)

    @given(finite_floats, finite_floats)
    def test_magnitude(self, x, y):
        d = torus_displacement(np.array([x]), np.array([y]))[0]
        assert abs(d) <= 0.5

    @given(
        st.floats(min_value=-0.5, max_value=0.499),
        st.floats(min_value=-0.5, max_value=0.499),
    )
    def test_consistency(self, x, y):
        # y + d(x, y) recovers x modulo 1
        d = torus_displacement(np.array([x]), np.array([y]))[0]
        assert abs(wrap_torus(np.array([y + d - x]))[0]) < 1e-9


class TestRngStream:
    def test_deterministic(self):
        a = RngStream(123).generator().normal(size=8)
        b = RngStream(123).generator().normal(size=8)
        assert np.array_equal(a, b)

    def test_fresh_generator_restarts(self):
        s = RngStream(9)
        a = s.generator().normal(size=4)
        b = s.generator().normal(size=4)
        assert np.array_equal(a, b)

    def test_distinct_axes(self):
        root = RngStream(55)
        draws = [
            root.generator().normal(size=4),
            root.for_replica(1).generator().normal(size=4),
            root.for_particle(1).generator().normal(size=4),
            RngStream(55, counter=1).generator().normal(size=4),
            RngStream(56).generator().normal(size=4),
        ]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j]), (i, j)

    def test_arity_separation(self):
        # a two-level key must not collide with a three-level key
        root = RngStream(55)
        two = root.for_replica(3).generator().normal(size=4)
        three = root.for_replica(3).for_particle(0).generator().normal(size=4)
        assert not np.array_equal(two, three)

    def test_counter_preserved_through_particle(self):
        a = RngStream(7, counter=1).for_particle(2).generator().normal(size=4)
        b = RngStream(7, counter=2).for_particle(2).generator().normal(size=4)
        assert not np.array_equal(a, b)

    @given(st.integers(min_value=0, max_value=2**63))
    def test_any_u64_seed(self, seed):
        RngStream(seed).generator().normal()


class TestTimeGrid:
    def test_basic(self):
        g = TimeGrid(t0=0.0, dt=0.25, steps=4)
        assert g.terminal == 1.0
        assert np.allclose(g.times(), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.index_of(0.5) == 2
        assert g.index_of(1.0) == 4

    def test_off_grid_warns(self):
        g = TimeGrid(t0=0.0, dt=0.25, steps=4)
        with pytest.warns(UserWarning):
            idx = g.index_of(0.51)
        assert idx == 2

    def test_rejects_bad_grid(self):
        with pytest.raises(ConfigError):
            TimeGrid(t0=0.0, dt=-0.1, steps=4)
        with pytest.raises(ConfigError):
            TimeGrid(t0=0.0, dt=0.1, steps=0)

    @given(
        st.floats(min_value=1e-4, max_value=1.0),
        st.integers(min_value=1, max_value=500),
    )
    def test_times_shape(self, dt, steps):
        g = TimeGrid(t0=0.0, dt=dt, steps=steps)
        ts = g.times()
        assert ts.shape == (steps + 1,)
        assert math.isclose(ts[-1], g.terminal, rel_tol=1e-12)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = config_from_dict(make_config_dict())
        assert cfg.n_particles == 4
        assert cfg.domain.is_torus
        assert cfg.grid.steps == 10
        assert cfg.kernel is not None and cfg.kernel.name == "smooth_divfree"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict(make_config_dict(bogus=1))

    def test_missing_key_rejected(self):
        raw = make_config_dict()
        del raw["seed"]
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(raw)

    def test_kernel_and_drift_exclusive(self):
        raw = make_config_dict(drift={"name": "zero", "params": {}})
        with pytest.raises(ConfigError, match="not both"):
            config_from_dict(raw)
        raw = make_config_dict()
        del raw["kernel"]
        with pytest.raises(ConfigError, match="kernel or a drift"):
            config_from_dict(raw)

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError):
            config_from_dict(make_config_dict(replicas=True))

    def test_seed_bounds(self):
        with pytest.raises(ConfigError):
            config_from_dict(make_config_dict(seed=-1))
        with pytest.raises(ConfigError):
            config_from_dict(make_config_dict(seed=2**64))

    def test_a_huge_dimension_fails_closed_without_allocating(self):
        law = {"name": "gaussian", "params": {"mean": [0.0]}}
        raw = make_config_dict(domain={"kind": "euclidean", "dim": 10**12}, initial_law=law)
        del raw["kernel"]
        raw["drift"] = {"name": "zero"}
        with pytest.raises(ConfigError, match="domain: key 'dim' = 1000000000000 exceeds 3906"):
            config_from_dict(raw)

    def test_the_dimension_bound_is_one_block_of_the_smallest_system(self):
        # one block holds BLOCK_REPLICAS replicas of n >= 2 particles in d
        # coordinates; above the bound even n = 2 exceeds the ensemble budget
        assert MAX_EUCLIDEAN_DIM == MAX_ENSEMBLE_ELEMENTS // (2 * BLOCK_REPLICAS) == 3906
        smallest_block = 2 * BLOCK_REPLICAS  # values per coordinate
        assert smallest_block * MAX_EUCLIDEAN_DIM <= MAX_ENSEMBLE_ELEMENTS < smallest_block * (MAX_EUCLIDEAN_DIM + 1)
        # the stages size their blocks and ensembles from these same numbers
        assert (dynamics.BLOCK_REPLICAS, dynamics.MAX_ENSEMBLE_ELEMENTS) == (BLOCK_REPLICAS, MAX_ENSEMBLE_ELEMENTS)
        assert DomainSpec("euclidean", MAX_EUCLIDEAN_DIM).dim == 3906
        with pytest.raises(ConfigError, match="key 'dim' = 3907 exceeds 3906"):
            DomainSpec("euclidean", MAX_EUCLIDEAN_DIM + 1)

    def test_kernel_needs_torus(self):
        raw = make_config_dict(domain={"kind": "euclidean", "dim": 2})
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_effective_eps_default_and_override(self):
        cfg = config_from_dict(make_config_dict())
        assert math.isclose(cfg.effective_eps, math.sqrt(0.01) / 10.0, rel_tol=1e-12)
        cfg2 = config_from_dict(make_config_dict(eps=0.03))
        assert cfg2.effective_eps == 0.03

    def test_load_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(make_config_dict()))
        assert load_json(str(path)) == make_config_dict()
        assert config_from_dict(load_json(str(path))).seed == 7

    def test_load_json_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_json(str(path))
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="must be a JSON object"):
            load_json(str(path))
        with pytest.raises(ConfigError, match="config not found"):
            load_json(str(tmp_path / "missing.json"))

    @pytest.mark.parametrize(
        "law,message",
        [
            ({"name": "gaussian", "params": {"sigma": "0.5"}}, "key 'sigma'"),
            ({"name": "gaussian", "params": {"sigma": "x"}}, "key 'sigma'"),
            ({"name": "gaussian", "params": {"sigma": True}}, "key 'sigma'"),
            ({"name": "gaussian", "params": {"mean": [0.0]}}, "one entry per dimension"),
            ({"name": "gaussian", "params": {"mean": 0.0}}, "key 'mean' expects list"),
            ({"name": "gaussian", "params": {"mean": [0.0, "1"]}}, "key 'mean'"),
            ({"name": "gaussian", "params": {"mean": [0.0, float("nan")]}}, "finite"),
            ({"name": "uniform_ball", "params": {"radius": "2"}}, "key 'radius'"),
            ({"name": "gaussian", "params": []}, "key 'params' expects dict"),
            ({"name": "gaussian", "params": {"sigma": -2}}, "key 'sigma' must be >= 0"),
            ({"name": "uniform_ball", "params": {"radius": -1}}, "key 'radius' must be >= 0"),
            ({"name": "uniform_ball", "params": {"radius": -1e-300}}, "key 'radius' must be >= 0"),
        ],
    )
    def test_initial_law_values_checked_at_parse_time(self, law, message):
        raw = make_config_dict(
            domain={"kind": "euclidean", "dim": 2}, kernel=None, drift={"name": "linear_pair", "params": {}},
            initial_law=law,
        )
        with pytest.raises(ConfigError, match=message):
            config_from_dict(raw)

    def test_zero_widths_and_brownian_hurst_half_parse(self):
        euclid = {"domain": {"kind": "euclidean", "dim": 2}, "kernel": None, "drift": {"name": "linear_pair", "params": {}}}
        for law in ({"name": "gaussian", "params": {"sigma": 0}}, {"name": "uniform_ball", "params": {"radius": 0.0}}):
            assert config_from_dict(make_config_dict(**euclid, initial_law=law)).initial_law == InitialLaw(**law)
        cfg = config_from_dict(make_config_dict(noise={"kind": "brownian", "hurst": 0.5}))
        assert (cfg.noise.kind, cfg.noise.hurst) == ("brownian", 0.5)

    @pytest.mark.parametrize(
        "over,message",
        [
            ({"domain": 5}, "key 'domain' expects dict"),
            ({"grid": "fast"}, "key 'grid' expects dict"),
            ({"grid": {"dt": 0.01, "steps": 10**400}}, "must be finite"),
            ({"grid": {"dt": 10**400, "steps": 10}}, "key 'dt'"),
            ({"noise": {"kind": "brownian", "hurst": "0.5"}}, "key 'hurst'"),
            ({"eps": float("inf")}, "key 'eps'"),
            ({"kernel": {"name": "smooth_divfree", "params": {}, "extra": 1}}, "kernel: unknown keys"),
            ({"n_particles": 1}, "n_particles must be >= 2"),
            ({"domain": {"kind": "torus", "dim": 1}}, "kernel config requires d = 2"),
            ({"domain": {"kind": "torus", "dim": 3}}, "kernel config requires d = 2"),
            ({"noise": {"kind": "brownian", "hurst": 0.3}}, "brownian noise has hurst 0.5, got 0.3"),
        ],
    )
    def test_malformed_values_name_the_key(self, over, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(make_config_dict(**over))


class TestOneReader:
    """core._pop_key reads every JSON value and core._reject_unknown checks
    every object for unknown keys."""

    @pytest.mark.parametrize(
        "kind,value,parsed",
        [(int, 8, 8), (int, 8.0, 8), (float, 2, 2.0), (float, 0.5, 0.5), (str, "a", "a"),
         (list, [1, "b"], [1, "b"]), (dict, {"a": 1}, {"a": 1}), (None, [0.5], [0.5])],
    )
    def test_each_kind_reads_its_json_type(self, kind, value, parsed):
        got = _pop_key({"key": value}, "key", kind)
        assert got == parsed and type(got) is type(parsed)

    @pytest.mark.parametrize(
        "kind,value,message",
        [
            (int, 8.5, "expected an integer, got 8.5"),
            (int, True, "expected an integer, got True"),
            (int, "8", "expected an integer, got '8'"),
            (float, False, "expected a number, got False"),
            (float, float("inf"), "expected a finite number, got inf"),
            (str, 1, "expects str, got int"),
            (list, {"a": 1}, "expects list, got dict"),
            (dict, [1], "expects dict, got list"),
        ],
    )
    def test_a_wrong_value_names_its_key(self, kind, value, message):
        with pytest.raises(ConfigError, match=f"^grid: key 'key':? {message}$"):
            _pop_key({"key": value}, "key", kind, where="grid")

    def test_null_is_absent(self):
        d = {"a": None, "b": None}
        assert _pop_key(d, "a", int, 3) == 3
        with pytest.raises(ConfigError, match="^grid: missing required key 'b'$"):
            _pop_key(d, "b", int, where="grid")
        assert d == {}

    def test_an_object_comes_back_as_a_copy(self):
        inner = {"a": 1}
        got = _pop_key({"key": inner}, "key", dict)
        got.pop("a")
        assert inner == {"a": 1}

    def test_unknown_keys_have_one_message(self):
        _reject_unknown({"a": 1, "b": 2}, "knn", allowed=("a", "b", "c"))
        with pytest.raises(ConfigError, match=r"^knn: unknown keys \['b', 'd'\]$"):
            _reject_unknown({"d": 1, "a": 1, "b": 2}, "knn", allowed=("a",))

    def test_an_initial_law_param_given_null_is_its_default(self):
        dom = DomainSpec(kind="euclidean", dim=2)
        draws = [
            sample_initial(InitialLaw(name="gaussian", params=params), dom, (5,), np.random.default_rng(4))
            for params in ({}, {"mean": None, "sigma": None}, {"mean": [0.0, 0.0], "sigma": 1.0})
        ]
        assert np.array_equal(draws[0], draws[1]) and np.array_equal(draws[0], draws[2])

    def test_a_float_integer_at_2_pow_53_fails_closed(self, tmp_path, capsys):
        # json reads 9007199254740993.0 as 9007199254740992.0: refused, never rounded
        path = tmp_path / "c.json"
        path.write_text(json.dumps(make_config_dict()).replace('"seed": 7', '"seed": 9007199254740993.0'))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config: key 'seed': a float at or above 2**53" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # an integer literal arrives as a Python int, exact
        path.write_text(json.dumps(make_config_dict()).replace('"seed": 7', '"seed": 9007199254740993'))
        assert config_from_dict(load_json(path)).seed == 9007199254740993

    @pytest.mark.parametrize(
        "name,path",
        [("linear_growth", ("initial_law", "params", "sigma")), ("smooth_torus", ("kernel", "params", "frequency"))],
    )
    def test_a_null_param_gives_an_equal_config(self, name, path):
        base = load_json(SHIPPED_CONFIG_DIR / f"{name}.json")["base"]
        node = base
        for key in path[:-1]:
            node = node[key]
        node.pop(path[-1])
        absent = config_from_dict(base)
        node[path[-1]] = None
        assert config_from_dict(base) == absent


class TestSampleInitial:
    def test_uniform_torus_in_range(self):
        law = InitialLaw(name="uniform", params={})
        dom = DomainSpec(kind="torus", dim=2)
        x = sample_initial(law, dom, (500, 3), np.random.default_rng(0))
        assert x.shape == (500, 3, 2)
        assert np.all(x >= -0.5) and np.all(x < 0.5)

    def test_gaussian_moments(self):
        law = InitialLaw(name="gaussian", params={"mean": [1.0, -2.0], "sigma": 0.5})
        dom = DomainSpec(kind="euclidean", dim=2)
        x = sample_initial(law, dom, (20000,), np.random.default_rng(1))
        assert x.shape == (20000, 2)
        assert np.allclose(x.mean(axis=0), [1.0, -2.0], atol=0.02)
        assert np.allclose(x.std(axis=0), 0.5, atol=0.02)

    def test_deterministic(self):
        law = InitialLaw(name="uniform", params={})
        dom = DomainSpec(kind="torus", dim=1)
        a = sample_initial(law, dom, (8, 1), np.random.default_rng(3))
        b = sample_initial(law, dom, (8, 1), np.random.default_rng(3))
        assert np.array_equal(a, b)
