"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

SPEC = {
    "test_id": "cli-test",
    "test_description": "cli test",
    "participant_num": 8,
    "question": [{"question_id": "q1", "text": "Which is better?"}],
    "webpages": [
        {"web_path": "va", "web_page_load": 2000},
        {"web_path": "vb", "web_page_load": 2000},
    ],
}

PAGE_A = (
    "<!DOCTYPE html><html><head><title>A</title>"
    '<link rel="stylesheet" href="styles/site.css"></head>'
    '<body><div id="m"><p>Version A text for the CLI test page.</p></div></body></html>'
)
PAGE_B = PAGE_A.replace("Version A", "Version B").replace("<title>A</title>", "<title>B</title>")
CSS = "p { line-height: 1.4 }"


@pytest.fixture
def workspace(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    for name, markup in (("va", PAGE_A), ("vb", PAGE_B)):
        page_dir = tmp_path / "pages" / name
        (page_dir / "styles").mkdir(parents=True)
        (page_dir / "index.html").write_text(markup)
        (page_dir / "styles" / "site.css").write_text(CSS)
    utilities = tmp_path / "utils.json"
    utilities.write_text(json.dumps({"va": 0.2, "vb": 0.7}))
    return tmp_path


class TestValidate:
    def test_valid_spec(self, workspace, capsys):
        assert main(["validate", str(workspace / "spec.json")]) == 0
        out = capsys.readouterr().out
        assert "cli-test" in out
        assert "1 comparison pairs" in out

    def test_invalid_spec(self, workspace, capsys):
        bad = workspace / "bad.json"
        bad.write_text(json.dumps({**SPEC, "participant_num": 0}))
        assert main(["validate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestPrepare:
    def test_exports_artifacts(self, workspace, capsys):
        out_dir = workspace / "out"
        code = main(
            [
                "prepare",
                str(workspace / "spec.json"),
                str(workspace / "pages"),
                str(out_dir),
            ]
        )
        assert code == 0
        exported = list(out_dir.rglob("*.html"))
        assert any("integrated" in str(p) for p in exported)
        assert any("versions" in str(p) for p in exported)
        # Inlining happened: the stored version carries the stylesheet.
        version = next(p for p in exported if p.name == "va.html")
        assert "line-height" in version.read_text()

    def test_missing_page_errors(self, workspace, capsys):
        (workspace / "pages" / "vb" / "index.html").unlink()
        code = main(
            [
                "prepare",
                str(workspace / "spec.json"),
                str(workspace / "pages"),
                str(workspace / "out"),
            ]
        )
        assert code == 2
        assert "missing page file" in capsys.readouterr().err


class TestRun:
    def test_full_campaign(self, workspace, capsys):
        code = main(
            [
                "run",
                str(workspace / "spec.json"),
                str(workspace / "pages"),
                "--seed",
                "5",
                "--utilities",
                str(workspace / "utils.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "8 participants" in out
        assert "va vs vb" in out
        assert "p-value" in out

    def test_reward_paces_arrivals(self, workspace, capsys, monkeypatch):
        import repro.core.campaign as campaign_module

        rewards = []
        real = campaign_module.arrival_offsets

        def spy(*args, **kwargs):
            rewards.append(kwargs["reward_usd"])
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign_module, "arrival_offsets", spy)
        code = main(
            [
                "run",
                str(workspace / "spec.json"),
                str(workspace / "pages"),
                "--seed",
                "5",
                "--reward",
                "0.5",
                "--arrival",
                "uniform",
                "--utilities",
                str(workspace / "utils.json"),
            ]
        )
        assert code == 0
        # The job is posted, and its arrivals paced, at the one reward.
        assert rewards == [0.5]
        assert "for $4.00" in capsys.readouterr().out

    def test_neutral_utilities_default(self, workspace, capsys):
        code = main(
            ["run", str(workspace / "spec.json"), str(workspace / "pages"), "--seed", "6"]
        )
        assert code == 0

    def test_adaptive_mode(self, workspace, capsys):
        code = main(
            [
                "run",
                str(workspace / "spec.json"),
                str(workspace / "pages"),
                "--seed",
                "7",
                "--scheduler",
                "merge",
                "--utilities",
                str(workspace / "utils.json"),
            ]
        )
        assert code == 0
        assert "participants" in capsys.readouterr().out

    def test_trace_out_writes_valid_timeline(self, workspace, capsys):
        from repro.obs.timeline import validate_trace_events

        trace_path = workspace / "timeline.json"
        code = main(
            [
                "run",
                str(workspace / "spec.json"),
                str(workspace / "pages"),
                "--seed",
                "6",
                "--parallelism",
                "2",
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Trace written to" in out
        assert "campaign" in out  # text report follows
        payload = json.loads(trace_path.read_text(encoding="utf-8"))
        assert validate_trace_events(payload) == []

    def test_incomplete_utilities_rejected(self, workspace, capsys):
        partial = workspace / "partial.json"
        partial.write_text(json.dumps({"va": 0.5}))
        code = main(
            [
                "run",
                str(workspace / "spec.json"),
                str(workspace / "pages"),
                "--utilities",
                str(partial),
            ]
        )
        assert code == 2
        assert "missing versions" in capsys.readouterr().err


class TestFleet:
    def test_fleet_smoke_with_chaos(self, workspace, capsys):
        out_path = workspace / "fleet.json"
        code = main(
            [
                "fleet",
                str(workspace / "spec.json"),
                str(workspace / "pages"),
                "--campaigns", "3",
                "--workers", "2",
                "--participants", "4",
                "--kill-rate", "0.5",
                "--seed", "7",
                "--utilities", str(workspace / "utils.json"),
                "--json", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 campaign(s)" in out
        payload = json.loads(out_path.read_text())
        report = payload["report"]
        assert report["submitted"] == 3
        assert report["completed"] + report["dead"] == 3
        # Zero lost jobs: every submission is accounted for in the output.
        assert len(payload["results"]) == report["completed"]
        assert len(payload["dead_letters"]) == report["dead"]

    def test_fleet_deterministic_reports(self, workspace, capsys):
        outputs = []
        for path in ("one.json", "two.json"):
            out_path = workspace / path
            assert main(
                [
                    "fleet",
                    str(workspace / "spec.json"),
                    str(workspace / "pages"),
                    "--campaigns", "2",
                    "--workers", "2",
                    "--participants", "4",
                    "--kill-rate", "1.0",
                    "--seed", "3",
                    "--json", str(out_path),
                ]
            ) == 0
            payload = json.loads(out_path.read_text())
            payload["report"].pop("wall_seconds")
            outputs.append(payload)
        capsys.readouterr()
        assert outputs[0] == outputs[1]


class TestBuilder:
    def test_prints_form(self, capsys):
        assert main(["builder", "--questions", "2", "--webpages", "3"]) == 0
        out = capsys.readouterr().out
        assert "question_2_text" in out
        assert "webpage_3_web_page_load" in out


class TestReplay:
    def test_scalar_load(self, workspace, capsys):
        page = workspace / "pages" / "va" / "index.html"
        assert main(["replay", str(page), "--load", "1500", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "speed_index" in out

    def test_selector_schedule(self, workspace, capsys):
        page = workspace / "pages" / "va" / "index.html"
        code = main(["replay", str(page), "--schedule", '[{"#m": 1200}]'])
        assert code == 0
        assert "1200" in capsys.readouterr().out
