#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is a cargo package of
its own (e2ebench/Cargo.toml) built with the repository's release profile
into $CARGO_TARGET_DIR (default: .bench_build). The last line of standard
output is the result as one JSON object. See e2ebench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["campaign_15k", "window_500k", "stream_daily"]
# A run must end within 180 s; stop the binary well before that.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--locked",
           "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(os.path.abspath(target), "release", "e2ebench")


def source_digest():
    """SHA-256 over the sources the binary is built from: the stand-in for
    a commit id where the checkout carries no git metadata."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, d) for d in ("crates", "vendor", "e2ebench")]
    files = [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for r in roots:
        for d, subdirs, names in os.walk(r):
            subdirs[:] = sorted(s for s in subdirs if s not in ("target", ".work"))
            files += [os.path.join(d, n) for n in sorted(names)
                      if n.endswith((".rs", ".toml", ".lock", ".py"))]
    for f in files:
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return None


def capture_info():
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    with open(MANIFEST, "rb") as fh:
        profile = tomllib.load(fh)["profile"]["release"]
    return {
        "host_cores": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "source_digest": source_digest(),
        "rustc": rustc,
        "profile": {"release": profile},
    }


def run_one(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(HERE, ".work")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload} printed no result (exit code {done.returncode})")
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    binary = build()
    print("capture " + json.dumps(capture_info(), sort_keys=True))
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    code = 0
    for w in workloads:
        rc, results[w] = run_one(binary, w, args)
        code = code or rc
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        for w in workloads:
            print(f"{w}: " + json.dumps(results[w]))
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    sys.exit(code)


if __name__ == "__main__":
    main()
