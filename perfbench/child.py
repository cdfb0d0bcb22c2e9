"""One measured chaoslab process, started fresh by perfbench/run.py.

    child.py setup <src> <plan.json>...
        import the CLI and parse + validate every plan, then exit; the
        parent times the whole process (interpreter start included)
    child.py run <src> <result.json> <threads> <out_root> <plan.json>...
    child.py trace <src> <result.json> <threads> <out_root> <plan.json>...
        run every plan through ``chaoslab.cli.main(["run", ...])`` one after
        another and write the wall time of each call (plan to CSVs written)
        and its exit code to result.json; ``trace`` also installs the layer
        tracer first and writes its spans and counts

Exit code 3 means chaoslab was not imported from <src>.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path


def _import_cli(src: Path):
    import chaoslab
    import chaoslab.cli

    if not Path(chaoslab.__file__).resolve().is_relative_to(src.resolve()):
        print(f"chaoslab imported from {chaoslab.__file__}, not from {src}", file=sys.stderr)
        sys.exit(3)
    return chaoslab.cli


def main(argv: list[str]) -> int:
    mode, src = argv[0], Path(argv[1])
    cli = _import_cli(src)
    if mode == "setup":
        from chaoslab.experiment import load_plan

        for path in argv[2:]:
            load_plan(path)
        return 0

    result_path, threads, out_root, plans = argv[2], argv[3], Path(argv[4]), argv[5:]
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    walls, codes = [], []
    for plan in plans:
        out = out_root / Path(plan).stem
        start = time.perf_counter()
        code = cli.main(["run", "--config", plan, "--out", str(out), "--threads", threads])
        walls.append(time.perf_counter() - start)
        codes.append(code)
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
    }
    result = {"walls": walls, "codes": codes, "env": env}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
