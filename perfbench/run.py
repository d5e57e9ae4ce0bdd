#!/usr/bin/env python3
"""Build and run the pluto-rs benchmark.

    python3 perfbench/run.py --workload <compile-cold|serve-mixed|run-kernels>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench` and `plutod` in release
mode (into $CARGO_TARGET_DIR, default `.bench_build`), runs one workload
in its own process, and forwards its output. The last stdout line is the
result document; it is checked against BENCHMARK.json's metric lists.
Exits non-zero, printing no result, when the build or the run fails.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def source_hash():
    """SHA-256 over the program and benchmark sources (the checkout may
    not be a git repository)."""
    h = hashlib.sha256()
    files = []
    for top in ("src", "crates", "perfbench"):
        for d, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in names if n.endswith((".rs", ".toml", ".py"))]
    files += [os.path.join(ROOT, n) for n in ("Cargo.toml", "Cargo.lock")]
    for f in sorted(files):
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"),
         "-p", "perfbench", "-p", "pluto-repro", "--bin", "perfbench", "--bin", "plutod"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    # Only this checkout's own history: never a repository around it.
    has_git = os.path.isdir(os.path.join(ROOT, ".git"))
    env["PERFBENCH_GIT_COMMIT"] = (command_output(["git", "rev-parse", "HEAD"])
                                   if has_git else "unknown")
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    env["PERFBENCH_SOURCE_HASH"] = source_hash()
    release = os.path.join(target, "release")
    # plutod's socket goes in the build directory; a relative path keeps
    # it within the Unix socket path limit.
    scratch = os.path.relpath(target, ROOT)
    if scratch.startswith(".."):
        scratch = target
    cmd = [os.path.join(release, "perfbench"), *args,
           "--plutod", os.path.join(release, "plutod"), "--scratch", scratch]
    # A session of its own, so a timeout can stop the benchmark and the
    # daemon it started together.
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if child.returncode != 0:
        sys.stderr.write(out)
        fail(f"benchmark exited with {child.returncode}")

    result = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != want:
        sys.stderr.write(out)
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ want)}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
