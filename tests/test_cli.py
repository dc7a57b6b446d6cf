import ast
import csv
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import etfilter
from etfilter import estimator, harness, model, numerics, rate, trigger
from etfilter.cli import _reference_note, main
from etfilter.harness import ExperimentConfig

# The whole stdout of `etfilter table1 --trials 8 --steps 9 --seed 6`, which echoes no path.
TABLE1_REPORT = """\
case      empirical     alg1     alg2   ref_emp  ref_alg1  ref_alg2  max|diff|
case1        0.4167   0.4867   0.4875    0.3812    0.3730    0.3761     0.1137
case2        0.5694   0.6541   0.6528    0.5684    0.5696    0.5678     0.0850
case3        0.4028   0.4011   0.4120    0.2798    0.2750    0.2712     0.1408
note: the references were produced at alpha=0.05 and 101 steps and do not apply to this run
"""


def _run(argv):
    return main([str(a) for a in argv])


class TestSimulateCommand:
    def test_writes_all_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = _run(
            ["simulate", "--case", "1", "--trials", 12, "--steps", 15, "--seed", 4, "--out", out]
        )
        assert code == 0
        for name in ("rms.csv", "rates.csv", "summary.csv"):
            assert (out / name).exists(), name
        printed = capsys.readouterr().out
        assert "case=case1" in printed
        assert "average rates" in printed

    def test_numeric_case_aliases(self, tmp_path):
        out = tmp_path / "c2"
        assert _run(["simulate", "--case", "2", "--trials", 5, "--steps", 8, "--out", out]) == 0
        row = list(csv.reader((out / "summary.csv").open()))[1]
        assert row[0] == "case2"

    def test_rejects_unknown_case(self, tmp_path, capsys):
        code = _run(["simulate", "--case", "nope", "--trials", 3, "--steps", 5, "--out", tmp_path])
        assert code == 2
        assert "unknown case" in capsys.readouterr().err


class TestTable1Command:
    def test_prints_reference_comparison(self, tmp_path, capsys):
        code = _run(["table1", "--trials", 8, "--seed", 6, "--out", tmp_path])
        assert code == 0
        printed = capsys.readouterr().out
        assert "case1" in printed and "ref_emp" in printed
        assert "widens" in printed  # reduced-trials note
        assert (tmp_path / "case3" / "summary.csv").exists()
        assert (tmp_path / "summary.csv").exists()

    def test_report_bytes(self, tmp_path, capsys):
        assert _run(["table1", "--trials", 8, "--steps", 9, "--seed", 6, "--out", tmp_path]) == 0
        assert capsys.readouterr().out == TABLE1_REPORT


class TestReferenceNote:
    def test_exact_reference_alpha_keeps_the_references(self):
        """alpha = 1/20 as a Fraction runs at the reference level 0.05, so the
        references apply: the config stores alpha as that float."""
        config = ExperimentConfig(alpha=Fraction(1, 20), trials=3)
        assert type(config.alpha) is float and config.alpha == 0.05
        note = _reference_note(config)
        assert "do not apply" not in note and "widens" in note

    def test_flags_references_of_other_conditions(self):
        note = _reference_note(ExperimentConfig(trials=20, steps=5, alpha=0.5, seed=9))
        assert "do not apply" in note
        assert "widens" not in note

    def test_band_narrows_above_the_reference_trials_and_widens_below(self):
        assert _reference_note(ExperimentConfig(trials=5000)) is None
        assert _reference_note(ExperimentConfig(trials=5200)) == (
            "note: references were produced at 5000 trials; at 5200 trials the Monte Carlo "
            "comparison band narrows to roughly +/-0.020"
        )
        assert _reference_note(ExperimentConfig(trials=20)) == (
            "note: references were produced at 5000 trials; at 20 trials the Monte Carlo "
            "comparison band widens to roughly +/-0.316"
        )


class TestTable1Settings:
    def test_steps_flag_reaches_every_case(self, tmp_path):
        """--steps reaches every case's rms.csv."""
        out = tmp_path / "o"
        argv = ["table1", "--trials", 4, "--steps", 9, "--out", out]
        assert _run(argv) == 0
        for case in ("case1", "case2", "case3"):
            rows = list(csv.reader((out / case / "rms.csv").open()))
            assert len(rows) == 10  # header + steps

    def test_alpha_flag_reaches_table1(self, tmp_path):
        """--alpha reaches table1: its summary differs from the default run's."""
        flags = ["table1", "--trials", 4, "--steps", 6]
        assert _run([*flags, "--alpha", 0.1, "--out", tmp_path / "f"]) == 0
        assert _run([*flags, "--out", tmp_path / "d"]) == 0
        files = sorted(p.relative_to(tmp_path / "f") for p in (tmp_path / "f").rglob("*.csv"))
        assert len(files) == 10
        alpha_summary = (tmp_path / "f" / "summary.csv").read_bytes()
        assert alpha_summary != (tmp_path / "d" / "summary.csv").read_bytes()

    def test_case_key_rejected(self, tmp_path, capsys):
        """table1 runs every case, so --case exits 2 and writes nothing."""
        with pytest.raises(SystemExit) as exc:
            _run(["table1", "--case", 2, "--trials", 4, "--out", tmp_path / "o"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --case" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestOutputDirResolution:
    def test_environment_variable_ignored(self, tmp_path, monkeypatch):
        """--out is the only route for the output directory."""
        monkeypatch.setenv("ETFILTER_OUT_DIR", str(tmp_path / "envdir"))
        monkeypatch.chdir(tmp_path)
        assert _run(["simulate", "--case", "1", "--trials", 4, "--steps", 6]) == 0
        assert (tmp_path / "etfilter-output" / "rates.csv").exists()
        assert not (tmp_path / "envdir").exists()

    def test_fallback_directory(self, tmp_path, monkeypatch):
        monkeypatch.delenv("ETFILTER_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert _run(["simulate", "--case", "1", "--trials", 4, "--steps", 6]) == 0
        assert (tmp_path / "etfilter-output" / "rates.csv").exists()


class TestTopLevel:
    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run([])
        assert exc.value.code == 2
        assert "the following arguments are required: command" in capsys.readouterr().err

    def test_bad_flag_value_exits(self, capsys):
        for argv in (["simulate", "--trials", "many"], ["--check"], ["--check", "table1"]):
            with pytest.raises(SystemExit) as exc:
                _run(argv)
            assert exc.value.code == 2, argv
        # --check was removed; argparse rejects it like any unknown flag.
        assert "unrecognized arguments: --check" in capsys.readouterr().err
        # So was the --config file: flags are the one route for run settings.
        with pytest.raises(SystemExit) as exc:
            _run(["--config", "x.cfg", "table1", "--trials", "2"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            _run(["table1", "--trials", "2", "--config", "x.cfg"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        # So was --trial-index: the rate predictors always follow trial 40.
        with pytest.raises(SystemExit) as exc:
            _run(["table1", "--trials", "2", "--trial-index", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --trial-index" in capsys.readouterr().err
        # The rates subcommand was removed; simulate writes rates.csv.
        with pytest.raises(SystemExit) as exc:
            _run(["rates", "--trials", "2"])
        assert exc.value.code == 2
        assert "invalid choice: 'rates'" in capsys.readouterr().err


class TestPublicNames:
    def test_each_public_name_is_declared_once_in_its_module(self):
        modules = (estimator, harness, model, numerics, rate, trigger)
        names = etfilter.__all__
        assert len(names) == len(set(names))
        assert names == ["__version__", *(n for m in modules for n in m.__all__)]
        public = {
            n
            for n in dir(etfilter)
            if not n.startswith("_") and not isinstance(getattr(etfilter, n), ModuleType)
        }
        assert public == set(names) - {"__version__"}


def _estimator_reads(path: Path) -> set[str]:
    """Every name ``path`` reads off ``etfilter.estimator``: imported from it
    (``from .estimator import x``) or read off the module (``estimator.x``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, reads = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            for alias in node.names:
                if source in (".estimator", "etfilter.estimator"):
                    reads.add(alias.name)
                elif source in (".", "etfilter") and alias.name == "estimator":
                    aliases.add(alias.asname or alias.name)
    return reads | {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }


class TestModuleBoundaries:
    @pytest.mark.parametrize("module", [rate, harness])
    def test_reads_no_private_module_name_of_the_estimator(self, module):
        """The filter owns its step geometry: the rate predictors and the
        harness reach it through a filter, never through a module-level
        private name of ``etfilter.estimator``."""
        reads = _estimator_reads(Path(module.__file__))
        assert "EventTriggeredFilter" in reads  # the parse found the imports
        assert sorted(n for n in reads if n.startswith("_")) == []


class TestImportFootprint:
    def test_import_loads_neither_scipy_nor_the_process_pool(self):
        # A fresh interpreter: pytest's warning filters import scipy into this one.
        code = "import sys, etfilter, etfilter.cli; print('\\n'.join(sys.modules))"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        loaded = proc.stdout.split()
        assert "etfilter.cli" in loaded
        assert [m for m in loaded if m.startswith(("scipy", "concurrent.futures"))] == []
