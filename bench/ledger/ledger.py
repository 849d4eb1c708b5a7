#!/usr/bin/env python3
"""Build and run the EM-BSP perf ledger, or compare two ledger files.

  python3 bench/ledger/ledger.py [ledger options]
      configures and builds bench/ledger (Release) into .bench_build/ledger
      under the repository root, then runs the ledger binary there with the
      given options and TMPDIR=.bench_build/tmp (see README.md)
  python3 bench/ledger/ledger.py diff PARENT.json CHANGE.json
      one row per workload x end-to-end metric with both medians and
      quartiles, the change against the bound in BENCHMARK.json and a
      verdict; then the per-layer deltas.  Exits 1 on any regression, and
      2 without comparing when the files' seeds or workload configurations
      differ.
"""
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "ledger"
# The model counts repeat exactly for one seed and configuration, so diff,
# which compares runs of one seed, allows them no change at all.  The bounds
# in BENCHMARK.json cover only their spread across seeds.
EXACT = ("parallel_ios", "space_amp")


def build():
    # Build output goes to stderr: stdout's last line is the ledger's result.
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def measure(args):
    build()
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    proc = subprocess.Popen([str(BUILD / "ledger"), *args], cwd=ROOT, env=env)
    # The ledger cleans up its scratch files on SIGINT/SIGTERM; forward
    # both and wait for it to finish.
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda signum, _: proc.send_signal(signum))
    return proc.wait()


def verdict(p, c, bound, lower_better):
    """better / unchanged / regressed / unresolved for one metric."""
    base = p["median"]
    worse = (c["median"] - base) if lower_better else (base - c["median"])
    delta = worse / base if base else 0.0
    spread = (p["q3"] - p["q1"]) / base if base else 0.0
    ps, cs = p["samples"], c["samples"]
    if lower_better:
        all_better, all_worse = max(cs) < min(ps), min(cs) > max(ps)
    else:
        all_better, all_worse = min(cs) > max(ps), max(cs) < min(ps)
    if spread > bound and not (all_better or all_worse):
        return delta, "unresolved"
    if delta > bound:
        return delta, "regressed"
    if -delta > spread:
        return delta, "better"
    return delta, "unchanged"


def diff(parent_path, change_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_doc = json.loads(Path(parent_path).read_text())
    change_doc = json.loads(Path(change_path).read_text())
    parent, change = parent_doc["workloads"], change_doc["workloads"]
    # Only runs of the same inputs on the same machine shapes compare.
    mismatch = []
    if parent_doc["seed"] != change_doc["seed"]:
        mismatch.append(f"seed {parent_doc['seed']} vs {change_doc['seed']}")
    for wl, p in parent.items():
        if wl in change and p["config"] != change[wl]["config"]:
            mismatch.append(f"{wl} config {p['config']} vs "
                            f"{change[wl]['config']}")
    if mismatch:
        for m in mismatch:
            print(f"ledger.py diff: files differ in {m}", file=sys.stderr)
        return 2
    regressed = False

    def quart(m):
        return f"{m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"

    print(f"{'workload':<22} {'metric':<14} {'parent':<36} {'change':<36} "
          f"{'delta':>8} {'bound':>6}  verdict")
    for wl, p in parent.items():
        c = change.get(wl)
        if c is None:
            print(f"{wl:<22} missing from {change_path}")
            regressed = True
            continue
        for spec in bench["end_to_end"]:
            name = spec["name"]
            pm, cm = p["end_to_end"].get(name), c["end_to_end"].get(name)
            if not pm or not cm or not pm["samples"] or not cm["samples"]:
                print(f"{wl:<22} {name:<14} no samples")
                regressed = True
                continue
            bound = 0.0 if name in EXACT else spec["bound"]
            delta, v = verdict(pm, cm, bound, spec["better"] == "lower")
            regressed |= v == "regressed"
            print(f"{wl:<22} {name:<14} {quart(pm):<36} {quart(cm):<36} "
                  f"{delta:>+8.2%} {bound:>6.1%}  {v}")
        if c["failed_runs"] > p["failed_runs"]:
            regressed = True
            print(f"{wl:<22} failed_runs    {p['failed_runs']} -> "
                  f"{c['failed_runs']}  regressed")

    print(f"\n{'workload':<22} {'per-layer metric':<28} {'parent':>14} "
          f"{'change':>14} {'delta':>9}")
    for wl, p in parent.items():
        c = change.get(wl, {}).get("per_layer", {})
        for name, pm in p["per_layer"].items():
            if name not in c:
                continue
            a, b = pm["value"], c[name]["value"]
            rel = f"{(b - a) / abs(a):+9.2%}" if a else f"{'':>9}"
            print(f"{wl:<22} {name:<28} {a:>14.6g} {b:>14.6g} {rel} "
                  f"{pm['unit']}")
    return 1 if regressed else 0


def main(argv):
    if argv[:1] == ["diff"]:
        if len(argv) != 3:
            print(__doc__, file=sys.stderr)
            return 2
        return diff(argv[1], argv[2])
    try:
        return measure(argv)
    except subprocess.CalledProcessError as e:
        print(f"ledger.py: build failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
