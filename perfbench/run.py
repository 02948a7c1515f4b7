#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload disco-glp --seed 1 --seconds 10 --trace 0

The executable (perfbench/main.ml) prints a metadata line and, as its last
stdout line, the result object; it exits nonzero when a correctness check
fails.  This wrapper only builds it, adds the source revision and passes
everything else through.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT = os.path.join("perfbench", "out")
SOURCES = ("lib", "bin", "perfbench")


def git(*args):
    """Output of a git command in this checkout, or None if it fails."""
    try:
        r = subprocess.run(["git", *args], capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def revision():
    """The git commit; when files differ from it, a digest of the sources
    the benchmark builds from follows after "+".  Outside a git checkout,
    the digest alone.  Git runs only when the checkout itself holds .git,
    so it never reads a repository above the checkout."""
    head = git("rev-parse", "HEAD") if os.path.exists(".git") else None
    if head and git("status", "--porcelain") == "":
        return head
    return f"{head}+{source_digest()}" if head else source_digest()


def source_digest():
    digest = hashlib.sha256()
    for top in SOURCES:
        for base, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "out")
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(base, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def build():
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr,
            env=env,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return r.returncode == 0 and os.path.isfile(EXE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, rest = ap.parse_known_args()
    if not build():
        print("perfbench: could not build perfbench/main.exe", file=sys.stderr)
        return 1
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rev", revision(),
        "--out", OUT,
    ] + rest
    try:
        return subprocess.run(cmd, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
