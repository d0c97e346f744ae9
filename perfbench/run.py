#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); pool files go to a per-run directory under it that
is removed however the run ends. The last line of standard output is the
run's JSON result; a failed build or run exits non-zero without one.
"""

import os
import shutil
import signal
import subprocess
import sys

# A run must end within this many seconds once built; the benchmark's own
# watchdog stops a stalled stage earlier (170 s) and names it.
RUN_TIMEOUT_S = 175


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    manifest = os.path.join("perfbench", "Cargo.toml")
    if not os.path.isfile(manifest) or not os.path.isdir("crates"):
        sys.exit("perfbench/run.py: run it from the root of a full repository checkout")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench/run.py: build failed")

    tmp = os.path.abspath(os.path.join(target, "perfbench-tmp", "run-%d" % os.getpid()))
    cmd = [os.path.join(target, "release", "perfbench")] + sys.argv[1:] + ["--tmpdir", tmp]
    sys.stdout.flush()
    # With SIGXFSZ ignored, a write past a file-size limit fails with EFBIG,
    # which the benchmark reports with the stage it was in, instead of the
    # run dying on the signal with no message.
    proc = subprocess.Popen(cmd, preexec_fn=lambda: signal.signal(signal.SIGXFSZ, signal.SIG_IGN))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench/run.py: run exceeded %d s and was stopped" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 3
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
