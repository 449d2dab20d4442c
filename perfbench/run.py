#!/usr/bin/env python3
"""Build the perfbench package from source and run one workload.

    python3 perfbench/run.py --workload <flat_timing|ann_ivf|churn_ff> \
        --seed <n> --seconds <s> --trace <0|1>

Cargo's build log goes to stderr; the benchmark's report goes to stdout
and its last line is one JSON object. The build lands in
$CARGO_TARGET_DIR (default: .bench_build at the repository root). A
failed build exits non-zero without printing a report.
"""

import os
import subprocess
import sys
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def patch_overrides():
    """Re-root the repository's offline crate patches at this checkout.

    `.cargo/config.toml` may pin `[patch.crates-io]` paths as absolute
    paths of the checkout it was written in. A patch whose path does not
    exist here is pointed at the same `<dir>/<crate>` under this root.
    """
    cfg = ROOT / ".cargo" / "config.toml"
    if not cfg.is_file():
        return []
    with open(cfg, "rb") as f:
        patches = tomllib.load(f).get("patch", {}).get("crates-io", {})
    args = []
    for name, spec in patches.items():
        path = Path(spec.get("path", "")) if isinstance(spec, dict) else None
        if path is None or path.is_dir():
            continue
        local = ROOT / path.parent.name / path.name
        if local.is_dir():
            args += ["--config", f'patch.crates-io.{name}.path="{local}"']
    return args


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml"), *patch_overrides()],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run([str(target / "release" / "perfbench"), *sys.argv[1:]], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
