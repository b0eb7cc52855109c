#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The benchmark binary is built from
perfbench/ (a CMake package of its own) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, and then run with the same arguments.
The source line, the binary's build line and the host line (CPU steal
during the run) record the run environment; the last line of stdout is
the binary's JSON result.  Exits non-zero, printing no result, when the
build or the run fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def source_line():
    """Git sha when the checkout is a git repository, and a digest of
    the sources the binary is built from in every case."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "include"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".hpp", ".cpp", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return f'# source {{"git_sha": "{sha}", "source_sha256": "{digest.hexdigest()}"}}'


def cpu_ticks():
    """The aggregate cpu line of /proc/stat (user nice system idle iowait
    irq softirq steal ...), or None where there is no /proc/stat."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def host_line(before, after):
    """Share of CPU time the hypervisor gave to other guests during the
    run.  Runs with a high steal_frac time the neighbours, not the code."""
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    steal = delta[7] / total if total > 0 else 0.0
    return f'# host {{"steal_frac": {steal:.4f}}}'


def build():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", "4"]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write(f"error: {' '.join(cmd)} failed\n")
            return None
    return os.path.join(build_dir, "kps_bench")


def main():
    binary = build()
    if binary is None:
        return 1
    print(source_line(), flush=True)
    before = cpu_ticks()
    try:
        done = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"error: benchmark ran past {RUN_TIMEOUT_S} s\n")
        return 1
    lines = done.stdout.splitlines()
    host = host_line(before, cpu_ticks())
    # The binary's result stays the last line.
    for line in lines[:-1] + ([host] if host else []) + lines[-1:]:
        print(line)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
