"""Rewiring-based dK-graph construction: preserving, targeting, counting.

Exports are lazy (PEP 562): each module is only imported when one of its
names is first accessed.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "RewiringCounts": "repro.generators.rewiring.counting",
    "count_dk_rewirings": "repro.generators.rewiring.counting",
    "rewiring_count_table": "repro.generators.rewiring.counting",
    "dk_randomize": "repro.generators.rewiring.preserving",
    "randomize_0k": "repro.generators.rewiring.preserving",
    "randomize_1k": "repro.generators.rewiring.preserving",
    "randomize_2k": "repro.generators.rewiring.preserving",
    "randomize_3k": "repro.generators.rewiring.preserving",
    "verify_randomization_converged": "repro.generators.rewiring.preserving",
    "EdgeEndIndex": "repro.generators.rewiring.swaps",
    "Swap": "repro.generators.rewiring.swaps",
    "double_swap_is_valid": "repro.generators.rewiring.swaps",
    "jdd_delta_of_double_swap": "repro.generators.rewiring.swaps",
    "jdd_delta_of_swap": "repro.generators.rewiring.swaps",
    "make_double_swap": "repro.generators.rewiring.swaps",
    "propose_0k_move": "repro.generators.rewiring.swaps",
    "propose_1k_swap": "repro.generators.rewiring.swaps",
    "propose_2k_swap": "repro.generators.rewiring.swaps",
    "record_chain_stats": "repro.generators.rewiring.chain",
    "warn_not_converged": "repro.generators.rewiring.chain",
    "TargetingResult": "repro.generators.rewiring.targeting",
    "constant_temperature": "repro.generators.rewiring.targeting",
    "geometric_cooling": "repro.generators.rewiring.targeting",
    "dk_targeting_construct": "repro.generators.rewiring.targeting",
    "dk_targeting_result": "repro.generators.rewiring.targeting",
    "target_2k_from_1k": "repro.generators.rewiring.targeting",
    "target_3k_from_2k": "repro.generators.rewiring.targeting",
}

#: Submodules reachable as attributes, as the eager imports used to bind.
_SUBMODULES = ("chain", "counting", "preserving", "swaps", "targeting")

__all__ = [*_SUBMODULES, *_EXPORTS]

_lazy_getattr, __dir__ = lazy_exports(__name__, _EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing the submodule binds it on this package as a side effect
        import importlib

        return importlib.import_module(f"repro.generators.rewiring.{name}")
    return _lazy_getattr(name)
