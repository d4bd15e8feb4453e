#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload er_match --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds `rotom-serve` (root workspace) and the
benchmark crate into $CARGO_TARGET_DIR (default `.bench_build`), then runs
the untraced (`--trace 0`) or traced (`--trace 1`) benchmark binary. Build
output goes to stderr; the benchmark's last stdout line is its JSON result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(target):
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "rotom-serve", "--bin", "rotom-serve"]),
        (os.path.join(HERE, "Cargo.toml"), ["--bins"]),
    ):
        if not os.path.isfile(manifest):
            sys.stderr.write(f"perfbench: missing {manifest}; nothing to build\n")
            return False
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest] + extra
        env = dict(os.environ, CARGO_TARGET_DIR=target)
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed\n")
            return False
    return True


def arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv[:-1] else default


def main(argv):
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(target):
        return 1
    traced = arg(argv, "--trace", "0") != "0"
    binary = os.path.join(target, "release", "perfbench-traced" if traced else "perfbench")
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    work = os.path.join(target, "perfbench-work", arg(argv, "--workload", "none"))
    cmd = [binary] + argv + [
        "--work-dir", work,
        "--serve-bin", os.path.join(target, "release", "rotom-serve"),
        "--rustc", rustc or "unknown",
    ]
    # Own process group, so a timeout also stops the server it spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
