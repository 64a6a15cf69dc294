"""Run one ``semcloud`` CLI stage in a fresh process, as a user would.

Usage: python3 bench/launcher.py STATS_JSON SPANS_JSON|- -- CLI_ARGS...

Samples the core's speed from the start (see ``common.SpeedSampler``),
times the import of ``semcloud.cli``, installs the benchmark's wrappers
when a spans file is named (``-`` runs untraced), then calls
``semcloud.cli.main``.  The import time, the stage's mean slowdown and
the spans are written when the stage exits, whatever its exit code.
"""

import json
import sys
import time

from common import SpeedSampler


def main(argv):
    stats_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: launcher.py STATS SPANS|- -- CLI_ARGS...")
    sampler = SpeedSampler()
    sampler.start()
    started = time.perf_counter()
    import semcloud.cli

    stats = {"import_s": time.perf_counter() - started}
    tracer = None
    if spans_path != "-":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        semcloud.cli.main.main(args=cli_args, prog_name="semcloud")
    finally:
        sampler.stop()
        stats["slowdown"] = sampler.slowdown()
        stats["samples"] = len(sampler.samples)
        with open(stats_path, "w") as fh:
            json.dump(stats, fh)
        if tracer is not None:
            with open(spans_path, "w") as fh:
                json.dump(tracer.spans, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
