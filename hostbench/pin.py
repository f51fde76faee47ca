"""Pin the input catalogs and ledger digests of the serving workloads.

Run from the repository root (about seven minutes)::

    python3 hostbench/pin.py

``serve-edge``: serves arrival seeds ``0 .. CANDIDATES-1`` with BP, keeps
the first ``CATALOG`` whose BP ledger has the most common number of
distinct batch sizes (see :class:`workloads.ServeEdge`), and records the
SHA-256 of each scheme's canonical ledger for them.  ``fleet-cloud``:
replays trace seeds ``0 .. CATALOG-1`` and records each merged ledger's
digest.  Everything goes to ``hostbench/pins.json``.  The digests record
the program's modelled behaviour; re-pin only for a change that is meant
to alter ledger bytes, and say so with the change.
"""

from __future__ import annotations

import collections
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

CATALOG = 16
CANDIDATES = 56


def _serve(scheme: object, stream: int) -> object:
    args = workloads.ServeEdge.stream_args(stream)
    return workloads.serve_cli.serve_one(scheme, args, workloads.ServeEdge.arrivals(args), None)


def main() -> int:
    """Select the serve catalog, compute every digest, write ``pins.json``."""
    bp, *others = workloads.ServeEdge.SCHEMES
    ledgers = {stream: _serve(bp, stream) for stream in range(CANDIDATES)}
    sizes = {
        stream: len({r.batch_size for r in metrics.records if r.batch_size})
        for stream, metrics in ledgers.items()
    }
    modal = collections.Counter(sizes.values()).most_common(1)[0][0]
    chosen = [stream for stream in range(CANDIDATES) if sizes[stream] == modal][:CATALOG]
    if len(chosen) < CATALOG:
        raise SystemExit(f"pin: only {len(chosen)} streams with {modal} batch sizes")
    print(f"serve-edge: BP batch-size counts {dict(collections.Counter(sizes.values()))}, "
          f"keeping {modal}: streams {chosen}", flush=True)
    serve = {}
    for stream in chosen:
        serve[str(stream)] = {bp.value: workloads.ledger_digest(ledgers[stream].ledger_text())}
        for scheme in others:
            serve[str(stream)][scheme.value] = workloads.ledger_digest(
                _serve(scheme, stream).ledger_text()
            )
    fleet = {}
    for trace in range(CATALOG):
        args, config, arrivals = workloads.FleetCloud.trace_inputs(trace)
        ledger = workloads.sharding.run_fleet(
            config, arrivals, shards=args.shards, workers=args.jobs
        )
        fleet[str(trace)] = workloads.ledger_digest(ledger.ledger_text())
    pins = {"serve-edge": serve, "fleet-cloud": fleet}
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
