"""Run the analysis side on a base install: numpy and scipy, no networkx.

An import hook refuses every ``networkx`` import and records the attempt,
then the script measures ``hot_small`` with the Table-2 summary (spectrum
included) and extracts its dK-distributions for d = 0..3.  It exits
non-zero if any of that fails or if anything tried to import networkx.
Run it as ``PYTHONPATH=src python tests/check_base_install.py``;
``tests/test_base_install.py`` runs it in a subprocess.
"""

import sys


class _RefuseNetworkx:
    def __init__(self):
        self.attempts: list[str] = []

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "networkx":
            self.attempts.append(name)
            raise ModuleNotFoundError(f"networkx is outside the base install: {name}")
        return None


def main() -> None:
    refuse = _RefuseNetworkx()
    sys.meta_path.insert(0, refuse)
    for name in [name for name in sys.modules if name.partition(".")[0] == "networkx"]:
        del sys.modules[name]

    from repro.core.extraction import dk_distribution
    from repro.metrics.summary import summarize
    from repro.topologies import build_topology

    graph = build_topology("hot_small")
    summary = summarize(graph, compute_spectrum=True).as_dict()
    assert summary["lambda_1"] > 0, summary
    distributions = [dk_distribution(graph, d) for d in range(4)]
    assert distributions[1].nodes == graph.number_of_nodes

    assert not refuse.attempts, refuse.attempts
    assert "networkx" not in sys.modules
    print("base install: summarize with the spectrum and P_0..P_3 without networkx")


if __name__ == "__main__":
    main()
