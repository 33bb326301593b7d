"""Graph generators: stochastic, pseudograph, matching, rewiring, exploration.

The construction-algorithm families are catalogued in
:mod:`repro.generators.registry`; use :func:`available_generators` to list
them and :func:`register_generator` to plug in new ones.

Exports are lazy (PEP 562, like the other ``repro`` packages): each
family's module is only imported when first accessed.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "stochastic_0k": "repro.generators.stochastic",
    "stochastic_1k": "repro.generators.stochastic",
    "stochastic_2k": "repro.generators.stochastic",
    "pseudograph_1k": "repro.generators.pseudograph",
    "pseudograph_2k": "repro.generators.pseudograph",
    "matching_1k": "repro.generators.matching",
    "matching_2k": "repro.generators.matching",
    "dk_randomize": "repro.generators.rewiring.preserving",
    "randomize_0k": "repro.generators.rewiring.preserving",
    "randomize_1k": "repro.generators.rewiring.preserving",
    "randomize_2k": "repro.generators.rewiring.preserving",
    "randomize_3k": "repro.generators.rewiring.preserving",
    "verify_randomization_converged": "repro.generators.rewiring.preserving",
    "GenerationResult": "repro.generators.registry",
    "GeneratorSpec": "repro.generators.registry",
    "GeneratorInputError": "repro.generators.registry",
    "UnknownGeneratorError": "repro.generators.registry",
    "UnsupportedLevelError": "repro.generators.registry",
    "available_generators": "repro.generators.registry",
    "get_generator": "repro.generators.registry",
    "register_generator": "repro.generators.registry",
    "TargetingResult": "repro.generators.rewiring.targeting",
    "target_2k_from_1k": "repro.generators.rewiring.targeting",
    "target_3k_from_2k": "repro.generators.rewiring.targeting",
    "dk_targeting_construct": "repro.generators.rewiring.targeting",
    "dk_targeting_result": "repro.generators.rewiring.targeting",
    "RewiringCounts": "repro.generators.rewiring.counting",
    "count_dk_rewirings": "repro.generators.rewiring.counting",
    "rewiring_count_table": "repro.generators.rewiring.counting",
    "ExplorationResult": "repro.generators.exploration",
    "explore_1k_likelihood": "repro.generators.exploration",
    "explore_2k": "repro.generators.exploration",
    "extreme_metric_gap": "repro.generators.exploration",
    "likelihood": "repro.generators.exploration",
    "ThreeKDelta": "repro.generators.threek",
    "ThreeKTracker": "repro.generators.threek",
}

#: Submodules reachable as attributes (``repro.generators.registry`` etc.) —
#: everything the eager imports used to bind on the package.
_SUBMODULES = (
    "baselines",
    "exploration",
    "matching",
    "pseudograph",
    "registry",
    "rewiring",
    "stochastic",
    "threek",
)

__all__ = [*_SUBMODULES, *_EXPORTS]

_lazy_getattr, __dir__ = lazy_exports(__name__, _EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing the submodule binds it on this package as a side effect
        import importlib

        return importlib.import_module(f"repro.generators.{name}")
    return _lazy_getattr(name)
