#!/usr/bin/env python3
"""Run the full pipeline over every shipped config.

Each config lands in <out>/<config file stem>/ with entropy.csv, bounds.csv,
checks.csv, horizons.csv and manifest.json. After each config the wall
time and the peak resident memory of its run are printed. The exit status
is the worst per-config exit code, a run killed by signal s counting as
128 + s, so CI can gate on this script alone.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out", help="output root (default: ./out)")
    ap.add_argument("--threads", type=int, default=None, help="worker threads per run")
    ap.add_argument("--seed", type=int, default=None, help="override every config seed")
    args = ap.parse_args()

    configs = sorted(CONFIG_DIR.glob("*.json"))
    if not configs:
        print(f"no configs under {CONFIG_DIR}", file=sys.stderr)
        return 2

    worst = 0
    for cfg in configs:
        dest = Path(args.out) / cfg.stem
        cmd = [sys.executable, "-m", "chaoslab.cli", "run",
               "--config", str(cfg), "--out", str(dest)]
        if args.threads is not None:
            cmd += ["--threads", str(args.threads)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        print(f"== {cfg.stem} -> {dest}", flush=True)
        start = time.perf_counter()
        child = subprocess.Popen(cmd)
        # wait4 reaps the child with its own resource usage; ru_maxrss is in KiB
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = code = os.waitstatus_to_exitcode(status)
        print(f"   wall {time.perf_counter() - start:.2f} s, peak RSS {usage.ru_maxrss / 1024:.1f} MB", flush=True)
        if code < 0:
            # killed by signal -code; report it as a shell does, 128 + signum
            print(f"   killed by signal {-code}", file=sys.stderr)
            code = 128 - code
        if code != 0:
            print(f"   exit code {code}", file=sys.stderr)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
