"""Tests for the generator registry (specs, lookup, GenerationResult)."""

import json

import pytest

from repro.core.extraction import dk_distribution
from repro.core.randomness import dk_random_graph
from repro.generators import registry
from repro.generators.registry import (
    GenerationResult,
    GeneratorInputError,
    GeneratorSpec,
    UnknownGeneratorError,
    UnsupportedLevelError,
    available_generators,
    get_generator,
    register_generator,
)
from repro.graph.simple_graph import SimpleGraph


EXPECTED_LEVELS = {
    "rewiring": {0, 1, 2, 3},
    "stochastic": {0, 1, 2},
    "pseudograph": {1, 2},
    "matching": {1, 2},
    "targeting": {2, 3},
    "erdos-renyi": {0, 1, 2, 3},
    "barabasi-albert": {0, 1, 2, 3},
}


@pytest.fixture
def scratch_registry(monkeypatch):
    """Run a test against a disposable copy of the process-wide registry."""
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))


def test_all_families_registered():
    specs = available_generators()
    assert set(specs) == set(EXPECTED_LEVELS)
    for name, levels in EXPECTED_LEVELS.items():
        assert set(specs[name].supported_d) == levels, name
    for name in ("rewiring", "erdos-renyi", "barabasi-albert"):
        assert specs[name].input_kind == "graph"
    for name in ("stochastic", "pseudograph", "matching", "targeting"):
        assert specs[name].input_kind == "distribution"


def test_get_generator_unknown_name():
    with pytest.raises(UnknownGeneratorError):
        get_generator("quantum")
    # stays catchable as the historical ValueError
    with pytest.raises(ValueError):
        get_generator("quantum")


def test_register_generator_rejects_silent_overwrite(scratch_registry):
    spec = GeneratorSpec(
        name="rewiring",
        description="shadow",
        supported_d=frozenset({2}),
        input_kind="graph",
        builder=lambda graph, d, rng: graph.copy(),
    )
    with pytest.raises(ValueError, match="already registered"):
        register_generator(spec)
    register_generator(spec, overwrite=True)
    assert get_generator("rewiring").description == "shadow"


def test_register_custom_generator_reachable_via_front_end(scratch_registry, hot_small):
    register_generator(
        GeneratorSpec(
            name="identity",
            description="returns a copy of the input graph",
            supported_d=frozenset({0, 1, 2, 3}),
            input_kind="graph",
            builder=lambda graph, d, rng: graph.copy(),
        )
    )
    assert "identity" in available_generators()
    generated = dk_random_graph(hot_small, 2, method="identity")
    assert generated == hot_small


def test_unsupported_level_raises(hot_small):
    with pytest.raises(UnsupportedLevelError):
        get_generator("matching").build(hot_small, 3)
    with pytest.raises(ValueError):
        get_generator("stochastic").build(hot_small, 3)


def test_invalid_level_raises(hot_small):
    with pytest.raises(ValueError):
        get_generator("rewiring").build(hot_small, 4)


def test_graph_input_generator_rejects_bare_distribution(hot_small):
    jdd = dk_distribution(hot_small, 2)
    with pytest.raises(GeneratorInputError, match="requires an original graph"):
        get_generator("rewiring").build(jdd, 2)


def test_unknown_option_is_rejected_before_any_work(scratch_registry, hot_small):
    calls = []
    register_generator(
        GeneratorSpec(
            name="keyword-stub",
            description="builder with one keyword option",
            supported_d=frozenset({1}),
            input_kind="graph",
            builder=lambda graph, d, rng, *, level=0: calls.append(level) or graph,
        )
    )
    with pytest.raises(GeneratorInputError, match="'foo'"):
        get_generator("keyword-stub").build(hot_small, 1, rng=1, foo=1)
    assert calls == []
    assert get_generator("keyword-stub").build(hot_small, 1, rng=1, level=2).graph is hot_small
    assert calls == [2]
    # the batch width is a kernel constant, not a rewiring option
    with pytest.raises(GeneratorInputError, match="'batch_size'"):
        get_generator("rewiring").build(hot_small, 2, rng=1, batch_size=7)


BAD_OPTION_VALUES = [
    ("rewiring", 1, "multiplier", "x"),
    ("rewiring", 1, "multiplier", -3),
    ("rewiring", 1, "multiplier", 0),
    ("rewiring", 1, "multiplier", float("nan")),
    ("rewiring", 1, "multiplier", float("inf")),
    ("rewiring", 1, "multiplier", True),
    ("targeting", 2, "max_attempts", "5"),
    ("targeting", 2, "max_attempts", 0),
    ("targeting", 2, "max_attempts", 2.5),
    ("targeting", 2, "max_attempts", True),
]


@pytest.mark.parametrize(
    "method, d, name, value",
    BAD_OPTION_VALUES,
    ids=[f"{name}={value!r}" for _, _, name, value in BAD_OPTION_VALUES],
)
def test_bad_option_values_are_rejected_before_any_work(hot_small, method, d, name, value):
    spec = get_generator(method)
    with pytest.raises(GeneratorInputError, match=repr(name)):
        spec.check_options({name: value})
    with pytest.raises(GeneratorInputError, match=repr(name)):
        spec.build(hot_small, d, rng=1, **{name: value})


def test_good_option_values_pass_the_check():
    get_generator("rewiring").check_options({"multiplier": 0.5})
    get_generator("rewiring").check_options({"multiplier": 2})
    get_generator("targeting").check_options({"max_attempts": None})
    get_generator("targeting").check_options({"max_attempts": 1})


def test_distribution_generator_accepts_graph_or_distribution(hot_small):
    spec = get_generator("pseudograph")
    from_graph = spec.build(hot_small, 2, rng=3)
    from_dist = spec.build(dk_distribution(hot_small, 2), 2, rng=3)
    assert from_graph.graph == from_dist.graph


def test_generation_result_provenance(hot_small):
    result = get_generator("rewiring").build(hot_small, 2, rng=11)
    assert isinstance(result, GenerationResult)
    assert result.method == "rewiring"
    assert result.d == 2
    assert result.seed == 11
    assert result.wall_time >= 0.0
    assert result.stats["accepted_moves"] > 0
    assert result.stats["attempted_moves"] >= result.stats["accepted_moves"]
    assert result.stats["converged"] is True
    document = json.loads(json.dumps(result.provenance()))
    assert document["nodes"] == result.graph.number_of_nodes
    assert document["edges"] == result.graph.number_of_edges
    assert document["seed"] == 11


def test_generation_result_seed_is_none_for_opaque_rng(hot_small):
    import numpy as np

    result = get_generator("pseudograph").build(hot_small, 2, rng=np.random.default_rng(5))
    assert result.seed is None


def test_targeting_stats_report_convergence(hot_small):
    result = get_generator("targeting").build(hot_small, 2, rng=1)
    assert result.stats["distance"] == 0.0
    assert result.stats["converged"] is True
    assert result.stats["attempted_moves"] > 0


def test_levels_label():
    assert get_generator("rewiring").levels_label() == "0-3"
    assert get_generator("targeting").levels_label() == "2-3"
    single = GeneratorSpec(
        name="x",
        description="",
        supported_d=frozenset({2}),
        input_kind="graph",
        builder=lambda graph, d, rng: graph,
    )
    assert single.levels_label() == "2"
    gapped = GeneratorSpec(
        name="y",
        description="",
        supported_d=frozenset({0, 2}),
        input_kind="graph",
        builder=lambda graph, d, rng: graph,
    )
    assert gapped.levels_label() == "0,2"


def test_dk_random_graph_return_result(hot_small):
    plain = dk_random_graph(hot_small, 2, rng=9)
    assert isinstance(plain, SimpleGraph)
    envelope = dk_random_graph(hot_small, 2, rng=9, return_result=True)
    assert isinstance(envelope, GenerationResult)
    assert envelope.graph == plain
