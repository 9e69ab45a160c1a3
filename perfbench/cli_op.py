"""One benchmark CLI op: the impurityprobe CLI, with the speed probe
sampled inside it and, if SPANS_JSON is not `-`, the benchmark's spans.

  python3 perfbench/cli_op.py PROBE_JSON SPANS_JSON <cli arguments...>

Behaves as `python -m impurityprobe.cli <cli arguments...>` and also writes
the probe samples taken during the command, and the time they took, to
PROBE_JSON (see probe.py), and the spans recorded to SPANS_JSON.
"""

import json
import sys

from probe import SpeedProbe


def main() -> int:
    probe_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    probe = SpeedProbe()
    probe.start()
    tracer = None
    try:
        import impurityprobe.cli as cli
        if spans_path != "-":
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
            tracer.op = 0
        return cli.main(argv)
    finally:
        probe.stop()
        with open(probe_path, "w") as fh:
            json.dump({"samples": probe.samples, "spent": probe.spent}, fh)
        if tracer is not None:
            tracer.op = None
            with open(spans_path, "w") as fh:
                json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
