"""Pinned byte identity of the gallery scenarios the benchmark does not run.

Each scenario runs through the CLI exactly as a user would
(``repro run scenarios/<name>.yaml --json --telemetry DIR``) in a fresh
interpreter, and the SHA-256 digests of its stdout, ``events.jsonl`` and
``timeline.jsonl`` must match the digests pinned here.  Any change to the
simulator's internals (how power state is stored, how phase changes fan
out) must leave all nine digests untouched; a deliberate change of
simulated behaviour re-pins them in the same commit.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    "intransit-staging": {
        "stdout": "0631c93e66bda5b94e7a975403a6dc94c2c2e0b4d014e83d1508cb3c4e1f41c8",
        "events": "8030f71a97c07743f67a80f55ad8cade2c0fcceefc0769ab5c75d9f479504305",
        "timeline": "bb26231ca35ec6fa3cd720a4795e43e0b6766f0ea39b0acc4c33cb42942f9348",
    },
    "mtbf-campaign": {
        "stdout": "ab111cbd75d36463a6e5a86e15421c7666770ef89d3ea424c546b97eaee19074",
        "events": "0fa60b245b2e92967b0f49898071653604d8b5fed2fc262c7d48247360a7d753",
        "timeline": "7f3be6ef7000a5fcb8db1e61302ed94fe95840002a2fa195e2e70670318acc35",
    },
    "powercap-stress": {
        "stdout": "c154fee7032747644cafa832d8216e0d6b4d3bbfae41bf71621363c4d4082a5c",
        "events": "1ba1b30af7891f155ebec1a9da1f49dd3803877089922226d394c7c6c14b1d9d",
        "timeline": "e5d057158d5865c501f7aa86f29343544822bb150e0d4ddb7b637de5611547a3",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("scenario", sorted(PINNED))
def test_gallery_run_is_byte_identical(scenario, tmp_path):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    telemetry = tmp_path / "telemetry"
    out = subprocess.run(
        [
            sys.executable, "-m", "repro", "run",
            str(REPO_ROOT / "scenarios" / f"{scenario}.yaml"),
            "--json", "--telemetry", str(telemetry),
        ],
        capture_output=True,
        timeout=300,
        cwd=str(REPO_ROOT),
        env=env,
    )
    assert out.returncode == 0, out.stderr.decode(errors="replace")
    got = {
        "stdout": _sha256(out.stdout),
        "events": _sha256((telemetry / "events.jsonl").read_bytes()),
        "timeline": _sha256((telemetry / "timeline.jsonl").read_bytes()),
    }
    assert got == PINNED[scenario]
