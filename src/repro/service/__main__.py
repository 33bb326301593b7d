"""``python -m repro.service`` — start the daemon without the full CLI.

The ``repro`` CLI imports every subcommand's dependencies; this entry point
only pulls in the service package, which imports the generators, the store
and the experiment pipeline on first use.
"""

from repro.service.app import serve_main

if __name__ == "__main__":
    raise SystemExit(serve_main())
