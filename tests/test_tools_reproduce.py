"""Regenerating the paper's artefacts with ``repro-run <id>``.

One serial, uncached run renders all 13 artefacts at the golden scale;
each rendering must equal ``tests/golden/artefacts/<id>.txt`` byte for
byte.  Regenerate those files after an intended change with::

    repro-run table1 table2 table3 table4 fig5 fig6 fig13 fig14 fig15 \\
        table6 table7 fig16 sec64 --serial --no-cache --format json \\
        --epoch-scale 341041 --trace-window 10000 -o artefacts.json

and write each ``artefacts[id]`` plus a newline to its file.
"""

import json
import pathlib

import pytest

from repro.obs import StatsSnapshot
from repro.report.artefacts import ARTEFACTS
from repro.runner.cli import main
from repro.workloads import get_profile
from repro.workloads.suites import WORKLOAD_GROUPS

GOLDEN = pathlib.Path(__file__).parent / "golden" / "artefacts"
SCALES = ["--epoch-scale", "341041", "--trace-window", "10000"]
FAST = ["--serial", "--no-cache", "--quiet", *SCALES]


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """The JSON report of one run over every artefact id."""
    out = tmp_path_factory.mktemp("artefacts") / "report.json"
    assert main([*ARTEFACTS, *FAST, "--format", "json", "-o", str(out)]) == 0
    return json.loads(out.read_text())


class TestCli:
    def test_list(self, capsys):
        assert main(["--list-suites"]) == 0
        listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
        assert set(ARTEFACTS) <= listed

    def test_no_experiments_is_error(self, capsys):
        assert main([]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_single_experiment(self, capsys):
        assert main(["table2", *FAST]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Table 2") and "apache-75" in out
        assert "runner metrics" not in out

    def test_output_dir(self, tmp_path, capsys):
        target = tmp_path / "sec64.txt"
        assert main(["sec64", *FAST, "-o", str(target)]) == 0
        assert target.read_text() == (GOLDEN / "sec64.txt").read_text()

    def test_multiple_experiments_share_context(self, report):
        # Figs. 13/14 share their slatch jobs, Figs. 5/15 their epochs
        # jobs, and Tables 6/7 + Fig. 16 their hlatch jobs.
        kinds = {}
        for job_id in report["jobs"]:
            kind = job_id.split(":")[0]
            kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds == {
            "taint_fraction": 27, "page_taint": 27, "epochs": 33,
            "fp_sweep": 33, "slatch": 33, "hlatch": 33,
        }


class TestExperimentFunctions:
    @pytest.mark.parametrize("identifier", list(ARTEFACTS))
    def test_every_experiment_renders(self, report, identifier):
        text = report["artefacts"][identifier]
        assert text.startswith(ARTEFACTS[identifier].title)
        assert text + "\n" == (GOLDEN / f"{identifier}.txt").read_text()

    def test_context_caches(self, report):
        # One job per (kind, workload): every shared cell ran once.
        assert all(job["attempts"] == 1 for job in report["jobs"].values())
        assert len(report["jobs"]) == len(set(report["jobs"]))

    def test_names_filter(self):
        assert len(WORKLOAD_GROUPS["spec"]) == 20
        assert len(WORKLOAD_GROUPS["network"]) == 7
        assert len(WORKLOAD_GROUPS["all"]) == 33
        assert {a.group for a in ARTEFACTS.values()} == set(WORKLOAD_GROUPS)

    @pytest.mark.parametrize("workload", ["kv-cache", "kv-storm"])
    def test_service_row_is_the_slatch_job(self, report, workload):
        snapshot = StatsSnapshot.from_dict(
            report["jobs"][f"slatch:{workload}"]["snapshot"]
        )
        row = next(
            line.split() for line in report["artefacts"]["fig13"].splitlines()
            if line.split()[:1] == [workload]
        )
        assert row == [
            workload,
            f"{get_profile(workload).libdft_slowdown - 1.0:.3f}",
            f"{snapshot.get('slatch.model.overhead'):.3f}",
            f"{snapshot.get('slatch.model.speedup_vs_libdft'):.3f}",
            f"{100 * snapshot.get('slatch.model.sw_fraction'):.3f}",
        ]
