"""Generator registry: the pluggable catalogue of dK-construction algorithms.

The paper evaluates a *family* of construction algorithms — stochastic,
pseudograph, matching, dK-preserving rewiring and dK-targeting rewiring —
uniformly across ``d = 0..3``.  This module makes that family a first-class,
extensible API instead of hard-coded string dispatch:

* :class:`GeneratorSpec` describes one algorithm family: its name, the dK
  levels it supports, whether it consumes an original *graph* or an extracted
  dK-*distribution*, and the callable that builds the graph.
* :func:`register_generator` / :func:`get_generator` /
  :func:`available_generators` manage the process-wide registry; the five
  paper algorithms are registered on import, and downstream code (the
  ``repro`` CLI, the Experiment pipeline, the comparison harness) derives its
  method choices from here.
* :class:`GenerationResult` is the provenance envelope every registry build
  returns: the graph plus method, d, seed, wall time and the algorithm's
  convergence/rewiring statistics.

Extension point::

    from repro.generators.registry import GeneratorSpec, register_generator

    def my_builder(distribution, d, rng, **options):
        ...  # return a SimpleGraph, or (SimpleGraph, stats_dict)

    register_generator(GeneratorSpec(
        name="my-method",
        description="my custom 2K construction",
        supported_d=frozenset({2}),
        input_kind="distribution",
        builder=my_builder,
    ))
"""

from __future__ import annotations

import inspect
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Literal, Mapping

import numpy as np

from repro.core.extraction import dk_distribution
from repro.generators.baselines import barabasi_albert_like, erdos_renyi_like
from repro.generators.matching import matching_1k, matching_2k
from repro.generators.pseudograph import pseudograph_1k, pseudograph_2k
from repro.generators.rewiring.preserving import dk_randomize
from repro.generators.rewiring.targeting import dk_targeting_result
from repro.generators.stochastic import stochastic_0k, stochastic_1k, stochastic_2k
from repro.graph.simple_graph import SimpleGraph
from repro.utils.rng import RngLike, ensure_rng

InputKind = Literal["graph", "distribution"]


class UnknownGeneratorError(ValueError):
    """Raised when looking up a generator name that is not registered."""


class UnsupportedLevelError(ValueError):
    """Raised when a generator is asked for a dK level it does not support."""


class GeneratorInputError(ValueError):
    """Raised when a generator receives the wrong kind of input.

    The canonical case is asking a graph-input algorithm (dK-preserving
    rewiring) to build from a bare dK-distribution: rewiring needs an
    original graph to start from.
    """


@dataclass(frozen=True)
class GenerationResult:
    """Provenance envelope around a generated graph.

    Attributes
    ----------
    graph:
        The constructed dK-random graph.
    method:
        Registry name of the algorithm that built it.
    d:
        dK level of the construction.
    seed:
        The integer seed the caller supplied, or ``None`` when an opaque
        generator (or no seed) was passed.
    wall_time:
        Construction wall time in seconds.
    stats:
        Algorithm-specific convergence/rewiring statistics (accepted and
        attempted moves, final target distance, ...).
    content_hash:
        Canonical content hash of the graph when known (set by the
        store-backed :func:`repro.store.memo.memoized_build`), ``None``
        otherwise.
    """

    graph: SimpleGraph
    method: str
    d: int
    seed: int | None
    wall_time: float
    stats: dict[str, Any] = field(default_factory=dict)
    content_hash: str | None = None

    def provenance(self) -> dict[str, Any]:
        """JSON-serializable provenance record (without the graph itself)."""
        return {
            "method": self.method,
            "d": self.d,
            "seed": self.seed,
            "wall_time": float(self.wall_time),
            "nodes": self.graph.number_of_nodes,
            "edges": self.graph.number_of_edges,
            "stats": json_safe(self.stats),
        }


def _positive_real(value: Any) -> bool:
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


def _positive_int_or_none(value: Any) -> bool:
    return value is None or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1
    )


#: ``option name -> (requirement, predicate)``: the values the built-in
#: builders accept, checked before any work.
OPTION_CHECKS: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "multiplier": ("a finite real number > 0", _positive_real),
    "max_attempts": ("None or an integer >= 1", _positive_int_or_none),
}


@dataclass(frozen=True)
class GeneratorSpec:
    """One registered construction-algorithm family.

    ``builder`` is called as ``builder(source, d, rng, **options)`` where
    ``source`` is a :class:`SimpleGraph` (``input_kind == "graph"``) or the
    extracted dK-distribution for level ``d`` (``input_kind ==
    "distribution"``).  It returns either a bare :class:`SimpleGraph` or a
    ``(graph, stats)`` pair.
    """

    name: str
    description: str
    supported_d: frozenset[int]
    input_kind: InputKind
    builder: Callable[..., Any]

    def supports(self, d: int) -> bool:
        """Whether this algorithm is defined for dK level ``d``."""
        return d in self.supported_d

    def check_supports(self, d: int) -> None:
        """Raise :class:`UnsupportedLevelError` unless ``d`` is supported."""
        if not self.supports(d):
            levels = ", ".join(str(level) for level in sorted(self.supported_d))
            raise UnsupportedLevelError(
                f"the {self.name!r} construction is only defined for d in {{{levels}}}, got {d}"
            )

    def check_options(self, options: Mapping[str, Any]) -> None:
        """Raise :class:`GeneratorInputError` for any option name the builder
        does not accept as a keyword after ``(source, d, rng)``, or a value
        that fails its :data:`OPTION_CHECKS` rule."""
        params = list(inspect.signature(self.builder).parameters.values())
        if not any(param.kind is param.VAR_KEYWORD for param in params):
            accepted = {
                param.name
                for param in params[3:]
                if param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
            }
            unknown = sorted(set(options) - accepted)
            if unknown:
                raise GeneratorInputError(
                    f"the {self.name!r} construction takes no option(s) "
                    f"{', '.join(map(repr, unknown))}; accepted: "
                    f"{', '.join(sorted(accepted)) or 'none'}"
                )
        for name, value in options.items():
            requirement, valid = OPTION_CHECKS.get(name, (None, None))
            if valid is not None and not valid(value):
                raise GeneratorInputError(
                    f"option {name!r} of the {self.name!r} construction must be "
                    f"{requirement}, got {value!r}"
                )

    def levels_label(self) -> str:
        """Compact human-readable form of the supported levels, e.g. ``"0-3"``."""
        levels = sorted(self.supported_d)
        if levels == list(range(levels[0], levels[-1] + 1)) and len(levels) > 1:
            return f"{levels[0]}-{levels[-1]}"
        return ",".join(str(level) for level in levels)

    def build(
        self,
        source: Any,
        d: int,
        *,
        rng: RngLike = None,
        **options: Any,
    ) -> GenerationResult:
        """Run the algorithm and wrap the output in a :class:`GenerationResult`.

        ``source`` may always be a :class:`SimpleGraph`; for
        distribution-input algorithms the level-``d`` distribution is
        extracted automatically.  Passing a bare distribution to a
        graph-input algorithm, or an option the builder does not take,
        raises :class:`GeneratorInputError` before any work.
        """
        if d not in (0, 1, 2, 3):
            raise ValueError(f"d must be in 0..3, got {d}")
        self.check_supports(d)
        self.check_options(options)

        if self.input_kind == "graph":
            if not isinstance(source, SimpleGraph):
                raise GeneratorInputError(
                    f"the {self.name!r} construction requires an original graph, "
                    f"not a bare {type(source).__name__}"
                )
        elif isinstance(source, SimpleGraph):
            source = dk_distribution(source, d)

        seed = None
        if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
            seed = int(rng)
        generator = ensure_rng(rng)
        start = time.perf_counter()
        built = self.builder(source, d, generator, **options)
        wall_time = time.perf_counter() - start
        if isinstance(built, tuple):
            graph, stats = built
        else:
            graph, stats = built, {}
        return GenerationResult(
            graph=graph,
            method=self.name,
            d=d,
            seed=seed,
            wall_time=wall_time,
            stats=dict(stats),
        )


_REGISTRY: dict[str, GeneratorSpec] = {}


def register_generator(spec: GeneratorSpec, *, overwrite: bool = False) -> GeneratorSpec:
    """Add a generator family to the registry.

    Registering a name twice is an error unless ``overwrite=True``; this
    catches accidental shadowing of the built-in algorithms while still
    allowing deliberate replacement.
    """
    if spec.name in _REGISTRY and not overwrite:
        raise ValueError(
            f"generator {spec.name!r} is already registered "
            "(pass overwrite=True to replace it)"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister_generator(name: str) -> None:
    """Remove a generator family from the registry (no-op when absent).

    Mainly for tests and interactive sessions that register throw-away
    algorithms.
    """
    _REGISTRY.pop(name, None)


def get_generator(name: str) -> GeneratorSpec:
    """Look up a registered generator family by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownGeneratorError(
            f"unknown method {name!r}; registered generators: {known}"
        ) from None


def available_generators() -> dict[str, GeneratorSpec]:
    """Mapping of registered generator names to their specs (sorted by name)."""
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}


def json_safe(value: Any) -> Any:
    """Recursively coerce numpy scalars/arrays and containers to JSON-native types."""
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((json_safe(item) for item in value), key=repr)
    if isinstance(value, bool):
        return value
    if hasattr(value, "tolist"):  # numpy array (or scalar)
        return value.tolist()
    if hasattr(value, "item"):  # other numpy-like scalar
        return value.item()
    return value


# --------------------------------------------------------------------------- #
# Built-in algorithm families (Sections 4.1.1-4.1.4 of the paper)
# --------------------------------------------------------------------------- #
def _build_rewiring(
    graph,
    d,
    rng,
    *,
    multiplier: float = 10.0,
):
    stats: dict[str, Any] = {}
    result = dk_randomize(graph, d, rng=rng, multiplier=multiplier, stats=stats)
    return result, stats


def _build_stochastic(distribution, d, rng):
    builders = {0: stochastic_0k, 1: stochastic_1k, 2: stochastic_2k}
    return builders[d](distribution, rng=rng)


def _build_pseudograph(distribution, d, rng):
    builders = {1: pseudograph_1k, 2: pseudograph_2k}
    return builders[d](distribution, rng=rng)


def _build_matching(distribution, d, rng):
    builders = {1: matching_1k, 2: matching_2k}
    graph = builders[d](distribution, rng=rng)
    # the repair step can fail to place an edge: report the shortfall
    return graph, {"missing_edges": distribution.edges - graph.number_of_edges}


def _build_targeting(distribution, d, rng, *, max_attempts: int | None = None):
    return dk_targeting_result(distribution, rng=rng, max_attempts=max_attempts)


register_generator(
    GeneratorSpec(
        name="rewiring",
        description="dK-preserving randomizing rewiring of the original graph "
        "(the paper's preferred approach, Section 4.1.4)",
        supported_d=frozenset({0, 1, 2, 3}),
        input_kind="graph",
        builder=_build_rewiring,
    )
)
register_generator(
    GeneratorSpec(
        name="stochastic",
        description="expected-distribution stochastic construction "
        "(Erdős–Rényi / Chung–Lu / degree-class block model, Section 4.1.1)",
        supported_d=frozenset({0, 1, 2}),
        input_kind="distribution",
        builder=_build_stochastic,
    )
)
register_generator(
    GeneratorSpec(
        name="pseudograph",
        description="configuration-model pseudograph construction with "
        "erased self-loops/multi-edges (Section 4.1.2)",
        supported_d=frozenset({1, 2}),
        input_kind="distribution",
        builder=_build_pseudograph,
    )
)
register_generator(
    GeneratorSpec(
        name="matching",
        description="stub-matching construction with backtracking repair "
        "(Section 4.1.3)",
        supported_d=frozenset({1, 2}),
        input_kind="distribution",
        builder=_build_matching,
    )
)
register_generator(
    GeneratorSpec(
        name="targeting",
        description="dK-targeting d'K-preserving Metropolis rewiring from a "
        "bare dK-distribution (Section 4.1.4)",
        supported_d=frozenset({2, 3}),
        input_kind="distribution",
        builder=_build_targeting,
    )
)


# --------------------------------------------------------------------------- #
# Non-dK baselines (reference scenarios for Fig. 5-style comparisons)
# --------------------------------------------------------------------------- #
def _build_erdos_renyi(graph, d, rng):
    return erdos_renyi_like(graph, rng=rng), {"baseline": "erdos_renyi", "ignored_d": d}


def _build_barabasi_albert(graph, d, rng):
    return barabasi_albert_like(graph, rng=rng), {"baseline": "barabasi_albert", "ignored_d": d}


register_generator(
    GeneratorSpec(
        name="erdos-renyi",
        description="uniform G(n, m) baseline matching only the size of the "
        "original (the dK level is ignored)",
        supported_d=frozenset({0, 1, 2, 3}),
        input_kind="graph",
        builder=_build_erdos_renyi,
    )
)
register_generator(
    GeneratorSpec(
        name="barabasi-albert",
        description="Barabási–Albert preferential-attachment baseline sized "
        "like the original (the dK level is ignored)",
        supported_d=frozenset({0, 1, 2, 3}),
        input_kind="graph",
        builder=_build_barabasi_albert,
    )
)


__all__ = [
    "InputKind",
    "GenerationResult",
    "GeneratorSpec",
    "GeneratorInputError",
    "UnknownGeneratorError",
    "UnsupportedLevelError",
    "register_generator",
    "unregister_generator",
    "get_generator",
    "available_generators",
    "json_safe",
]
