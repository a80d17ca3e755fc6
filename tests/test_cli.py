"""Command line chain on a tiny corpus, plus flag and exit-code handling."""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import filingswarm
from filingswarm.cli import main
from filingswarm.corpus.records import ingest_jsonl
from filingswarm.corpus.schema import load_default_registry
from filingswarm.questbench import load_benchmark
from filingswarm.vindex import load_index


@pytest.fixture(scope="module")
def rundir(tmp_path_factory):
    """One corpus plus one benchmark, generated through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    bench = root / "bench.jsonl"
    assert main(["corpus", "gen", "--records-per-table", "120", "--seed", "3",
                 "--out", str(corpus)]) == 0
    assert main(["bench", "gen", "--corpus", str(corpus), "--per-template", "2",
                 "--seed", "5", "--out", str(bench)]) == 0
    return {"root": root, "corpus": str(corpus), "bench": str(bench)}


def test_corpus_gen_output_ingests_cleanly(rundir):
    result = ingest_jsonl(rundir["corpus"], load_default_registry())
    assert not result.rejections
    assert len(result.store.records) > 0


def test_corpus_gen_is_deterministic_per_seed(tmp_path):
    paths = [tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl")]
    for path, seed in zip(paths, ("9", "9", "10")):
        assert main(["corpus", "gen", "--records-per-table", "30",
                     "--filers", "3", "--seed", seed, "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_index_build_writes_loadable_snapshot(rundir):
    out = rundir["root"] / "nport.idx"
    assert main(["index", "build", "--corpus", rundir["corpus"],
                 "--scope", "table:nport_holdings", "--dim", "32",
                 "--out", str(out)]) == 0
    index, fingerprint = load_index(out)
    assert fingerprint == "hash:32"
    assert index.dim == 32
    assert len(index) > 0


def test_index_build_rejects_bad_scope(rundir, tmp_path, capsys):
    rc = main(["index", "build", "--corpus", rundir["corpus"],
               "--scope", "nonsense:thing", "--out", str(tmp_path / "x.idx")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bench_gen_round_trips_questions(rundir):
    instances = load_benchmark(rundir["bench"])
    assert len(instances) == 22
    assert all(i.variant == "templated" for i in instances)
    assert len({i.template_id for i in instances}) == 11


def test_bench_gen_variegates_with_det_provider(rundir):
    out = rundir["root"] / "bench_mixed.jsonl"
    assert main(["bench", "gen", "--corpus", rundir["corpus"],
                 "--per-template", "2", "--seed", "5", "--variegate", "1",
                 "--provider", "det", "--out", str(out)]) == 0
    instances = load_benchmark(out)
    assert sum(1 for i in instances if i.variant == "templated") == 22
    assert sum(1 for i in instances if i.variant == "variegated") == 22
    # rewrites follow their base question
    assert instances[0].variant == "templated"
    assert instances[1].variant == "variegated"
    assert instances[1].base_text == instances[0].text


def test_retrieval_run_covers_every_scope(rundir):
    out = rundir["root"] / "retrieval.json"
    assert main(["retrieval", "run", "--corpus", rundir["corpus"],
                 "--bench", rundir["bench"], "--dim", "32",
                 "--out", str(out)]) == 0
    section = json.loads(out.read_text())
    assert set(section["scopes"]) == {"global", "agent", "table"}
    for scope in section["scopes"].values():
        assert 0.0 <= scope["overall"]["r_precision"] <= 1.0


@pytest.mark.parametrize("flag,name", [("embed", "embedding"),
                                       ("gen", "generative"),
                                       ("swarm", "swarm")])
def test_route_run_each_strategy(rundir, flag, name):
    out = rundir["root"] / f"routing_{flag}.json"
    assert main(["route", "run",
                 "--bench", rundir["bench"], "--strategy", flag,
                 "--dim", "32", "--seed", "1", "--out", str(out)]) == 0
    section = json.loads(out.read_text())
    assert section["strategy"] == name
    cell = section["splits"]["overall"]["both"]
    assert cell["n_samples"] == 22
    assert 0.0 <= cell["acc_overall"] <= 1.0


def test_agentic_run_writes_records_and_memory(rundir):
    out = rundir["root"] / "agentic.json"
    memory = rundir["root"] / "memory.jsonl"
    assert main(["agentic", "run", "--corpus", rundir["corpus"],
                 "--bench", rundir["bench"], "--workers", "2",
                 "--memory", str(memory), "--out", str(out)]) == 0
    section = json.loads(out.read_text())
    assert section["kind"] == "agentic"
    assert section["n_instances"] == 22
    assert len(section["records"]) == 22
    # an honest run on clean templated questions answers at least some
    assert section["splits"]["overall"]["both"]["success_rate"] > 0.0
    assert memory.exists()
    assert memory.stat().st_size > 0


def test_report_combines_all_sections(rundir):
    root = rundir["root"]
    report_md = root / "report.md"
    report_json = root / "report.json"
    assert main(["report",
                 "--retrieval", str(root / "retrieval.json"),
                 "--routing", str(root / "routing_embed.json"),
                 str(root / "routing_gen.json"), str(root / "routing_swarm.json"),
                 "--agentic", str(root / "agentic.json"),
                 "--out", str(report_md), "--json-out", str(report_json)]) == 0
    text = report_md.read_text()
    assert "## Retrieval scope ablation" in text
    assert "## Routing strategies" in text
    assert "## Agentic question answering" in text
    assert text.count("Strategy:") == 3
    doc = json.loads(report_json.read_text())
    assert set(doc) == {"retrieval", "routing", "agentic"}
    assert len(doc["routing"]) == 3



# sha256 of each file the studies write on the rundir inputs: every study with
# --workers 1, the agentic study with and without --memory, that run's
# journal, and the report command's markdown and JSON over the retrieval,
# three routing and memoryless agentic reports. Computed on the code whose
# LongTermMemory had a close() that the agentic command called.
GOLDEN_REPORTS_SHA256 = {
    "retrieval.json": "6b47c4b86efa5714150440a84c91b0ab7c8b828474f1cbbd8197e47d01f3bc4b",
    "routing_embed.json": "0bdb058a23de8827ef0f7dfbfa998beca1b7967670e10e4a12b22545809244b9",
    "routing_gen.json": "ea5792b44715e785abf79a8cdb255780869dc3eead03301ea7138849bd7f1953",
    "routing_swarm.json": "7b8393b9504bee71f348a00e290c2b244fae8e638fcf878dcc09559d498030d5",
    "agentic.json": "8c16c5b2fe9796772d021c2c4b8a63e7b874690cc6ebdc8eb03001eaa17fa116",
    "agentic_memory.json": "c68618d6566898bd572b85b449f6dfd9d37627e0a4e181eb7aef9015aa36abe2",
    "memory.jsonl": "715b67244e7256ac1c031edc36bacc0086923b9c73881e1ecba5156fbe19a3dd",
    "report.md": "3ebfac712bf4decf4ff42a278672999d8ef858d6cf86c09ae69f1c8e1b9fd624",
    "report.json": "c6097880e347f33308a87391cf16eb57e13f075b40e94b599dc6bbcc4f2c4331",
}


def _agentic_argv(rundir, out, workers, memory=None):
    argv = ["agentic", "run", "--corpus", rundir["corpus"], "--bench", rundir["bench"],
            "--workers", str(workers), "--out", str(out)]
    return argv + ["--memory", str(memory)] if memory else argv


@pytest.fixture(scope="module")
def golden(rundir):
    """A directory holding every file GOLDEN_REPORTS_SHA256 names."""
    root = rundir["root"] / "golden"
    root.mkdir()
    assert main(["retrieval", "run", "--corpus", rundir["corpus"],
                 "--bench", rundir["bench"], "--dim", "32",
                 "--out", str(root / "retrieval.json")]) == 0
    routing = [root / f"routing_{flag}.json" for flag in ("embed", "gen", "swarm")]
    for flag, out in zip(("embed", "gen", "swarm"), routing):
        assert main(["route", "run", "--bench", rundir["bench"], "--strategy", flag,
                     "--dim", "32", "--seed", "1", "--out", str(out)]) == 0
    assert main(_agentic_argv(rundir, root / "agentic.json", 1)) == 0
    assert main(_agentic_argv(rundir, root / "agentic_memory.json", 1,
                              root / "memory.jsonl")) == 0
    assert main(["report", "--retrieval", str(root / "retrieval.json"),
                 "--routing", *map(str, routing),
                 "--agentic", str(root / "agentic.json"),
                 "--out", str(root / "report.md"),
                 "--json-out", str(root / "report.json")]) == 0
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS_SHA256))
def test_study_reports_are_pinned(golden, name):
    digest = hashlib.sha256((golden / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_REPORTS_SHA256[name]


@pytest.mark.parametrize("name", ["agentic.json", "agentic_memory.json"])
def test_agentic_run_with_two_workers_writes_the_serial_report(rundir, golden, name):
    out = golden / f"two_workers_{name}"
    memory = golden / "two_workers_memory.jsonl" if "memory" in name else None
    assert main(_agentic_argv(rundir, out, 2, memory)) == 0
    assert out.read_bytes() == (golden / name).read_bytes()

def test_report_with_no_sections_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["report", "--out", str(tmp_path / "empty.md")])


def test_scripted_provider_requires_fixture_path(rundir, tmp_path):
    with pytest.raises(SystemExit):
        main(["route", "run",
              "--bench", rundir["bench"], "--provider", "scripted",
              "--out", str(tmp_path / "r.json")])


def test_missing_corpus_fails_with_nonzero_exit(tmp_path, capsys):
    rc = main(["retrieval", "run", "--corpus", str(tmp_path / "nope.jsonl"),
               "--bench", str(tmp_path / "nope.bench"),
               "--out", str(tmp_path / "o.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_command_exits_with_usage_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _console_script() -> tuple[list[str], dict[str, str] | None]:
    """Command and environment that run the ``filingswarm`` console script.

    An installed script on ``PATH`` is run as it is. From an uninstalled
    checkout, the entry point declared in ``pyproject.toml`` is checked and
    run in a fresh interpreter the way the installer's wrapper runs it, with
    the imported package's directory on ``PYTHONPATH``.
    """
    script = shutil.which("filingswarm")
    if script is not None:
        return [script], None
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("filingswarm") == "filingswarm.cli:main"
    package_root = str(Path(filingswarm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    wrapper = "import sys; from filingswarm.cli import main; sys.exit(main())"
    return [sys.executable, "-c", wrapper], env


def test_console_script_is_installed(tmp_path):
    command, env = _console_script()
    help_run = subprocess.run(command + ["--help"], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
    assert help_run.returncode == 0, help_run.stderr
    for word in ("corpus", "bench", "route", "agentic", "report"):
        assert word in help_run.stdout
    gen = subprocess.run(
        command + ["corpus", "gen", "--records-per-table", "5",
                   "--filers", "2", "--seed", "1",
                   "--out", str(tmp_path / "mini.jsonl")],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert gen.returncode == 0, gen.stderr
    assert (tmp_path / "mini.jsonl").exists(), gen.stderr
