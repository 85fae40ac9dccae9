#!/usr/bin/env python3
"""Build and run the repo benchmark for one seeded workload.

    python3 perfbench/run.py --workload round_blinded --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the repository's own
sources) into the build directory: $CARGO_TARGET_DIR if set, else
.bench_build. Later runs only rebuild what changed.

Stdout carries the benchmark's output; its last line is the JSON result.
Build output goes to stderr. Exits non-zero, without a result, when the
repository's sources are missing or the build fails.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("round_blinded", "ingest_open", "audit_oprf")
RUN_TIMEOUT_S = 170


def build_dir() -> pathlib.Path:
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def revision() -> str:
    """The git commit when the checkout is a repository, else a digest of
    the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "sources-" + digest.hexdigest()[:16]


def build(cmake_dir: pathlib.Path) -> pathlib.Path:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: repository sources not found next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    if not (cmake_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    binary = cmake_dir / "perfbench"
    before = binary.stat().st_mtime_ns if binary.exists() else None
    subprocess.run(["cmake", "--build", str(cmake_dir), "--target",
                    "perfbench", "-j", jobs], stdout=sys.stderr, check=True)
    if binary.stat().st_mtime_ns != before:
        # Write the build's output back now, so its writeback does not
        # compete with the measured run's journal fsyncs.
        os.sync()
    return binary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out / "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    sys.stdout.flush()
    try:
        run = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--work-dir", str(work), "--revision",
             revision()],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
