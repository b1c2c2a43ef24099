"""``python -m repro.serve``: one-shot query commands + process identity.

The two-process test is the ISSUE's acceptance criterion verbatim: export a
snapshot, load it in two *separate* interpreter processes, answer the same
fixed query set, and demand byte-identical output.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.serve import canonical_json
from repro.serve.__main__ import main

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


class TestMain:
    def test_stats(self, snapshot_path, core, capsys):
        rc = main(["--snapshot", snapshot_path, "stats"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == canonical_json(core.stats())

    def test_check(self, snapshot_path, core, known_url, capsys):
        rc = main(["--snapshot", snapshot_path, "check", known_url])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out == core.check(known_url)

    def test_classify(self, snapshot_path, capsys):
        rc = main([
            "--snapshot", snapshot_path, "classify",
            "--title", "You won", "--body", "claim your prize",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "classify"

    def test_campaign_unknown_id_exits_1(self, snapshot_path, capsys):
        rc = main(["--snapshot", snapshot_path, "campaign", "999999999"])
        assert rc == 1
        assert "no campaign" in capsys.readouterr().err

    def test_missing_snapshot_exits_2(self, tmp_path, capsys):
        rc = main(["--snapshot", str(tmp_path / "nope.json"), "stats"])
        assert rc == 2
        assert "cannot load snapshot" in capsys.readouterr().err

    def test_corrupt_snapshot_exits_2(self, snapshot, tmp_path, capsys):
        payload = json.loads(snapshot.to_json())
        payload["cut_threshold"] = 0.5  # breaks the content hash
        stale = tmp_path / "stale.json"
        stale.write_text(canonical_json(payload), encoding="utf-8")
        rc = main(["--snapshot", str(stale), "stats"])
        assert rc == 2
        assert "hash mismatch" in capsys.readouterr().err

    def test_no_cache_answers_identically(self, snapshot_path, known_url, capsys):
        main(["--snapshot", snapshot_path, "check", known_url])
        with_cache = capsys.readouterr().out
        main(["--snapshot", snapshot_path, "--no-cache", "check", known_url])
        assert capsys.readouterr().out == with_cache


# One script, run twice: load the snapshot, answer a fixed query set,
# print every canonical response line. stdout must be byte-identical.
_QUERY_SCRIPT = """\
import sys
from repro.serve import MinedSnapshot, ServeCore, canonical_json

snapshot = MinedSnapshot.load(sys.argv[1])
core = ServeCore(snapshot, workers=int(sys.argv[2]))
urls = sorted(snapshot.urls)[:10] + ["https://never-crawled.example/x/1"]
wpns = [
    {
        "title": " ".join(row["text_tokens"][:6]),
        "body": " ".join(row["text_tokens"][6:]),
        "landing_url": row["landing_url"],
    }
    for row in snapshot.records[:10]
]
cluster_ids = sorted(
    int(entry["cluster_id"]) for entry in snapshot.campaigns.values()
)[:5]
answers = core.check_batch(urls) + core.classify_batch(wpns)
answers += [core.campaign(cid) for cid in cluster_ids] + [core.stats()]
for answer in answers:
    sys.stdout.write(canonical_json(answer) + "\\n")
"""


def _query_in_subprocess(snapshot_path, workers):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _QUERY_SCRIPT, snapshot_path, str(workers)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestTwoProcessIdentity:
    def test_fixed_queries_are_byte_identical_across_processes(
        self, snapshot_path
    ):
        first = _query_in_subprocess(snapshot_path, workers=1)
        second = _query_in_subprocess(snapshot_path, workers=1)
        assert first  # the script actually answered something
        assert first == second

    def test_worker_count_does_not_change_the_bytes(self, snapshot_path):
        serial = _query_in_subprocess(snapshot_path, workers=1)
        parallel = _query_in_subprocess(snapshot_path, workers=4)
        assert serial == parallel
