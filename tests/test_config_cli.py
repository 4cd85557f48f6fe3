import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinaep as sa
from spinaep.cli import main
from spinaep.config import _KEYS
from spinaep.errors import ConfigError

from oracles import classical_chain_entropy_bits

CONFIG_DOC = Path(__file__).resolve().parents[1] / "docs" / "config-format.md"


def rows_of(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def documented_keys():
    """Key -> backticked values of its default cell, for each row of the docs' key table."""
    rows = {}
    for line in CONFIG_DOC.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)]
        if len(cells) == 6 and cells[1].startswith("`"):
            rows[cells[1].strip("`")] = re.findall(r"`([^`]*)`", cells[3])
    return rows


def diagnostics(text):
    with pytest.raises(ConfigError) as info:
        sa.parse_config(text)
    return str(info.value).splitlines()[1:]


class TestParseConfig:
    def test_minimal_document_gets_defaults(self):
        config = sa.parse_config("")
        assert config.model == "tfim"
        assert config.d == 1
        assert config.volumes == (1, 2)
        assert config.deltas == (0.15,)
        assert config.boundary == "all-up"
        assert config.h_ref is None
        assert config.seed == 12345
        assert config.max_qubits == sa.DEFAULT_QUBIT_CAP

    def test_comments_and_blank_lines_ignored(self):
        config = sa.parse_config("# a comment\n\nbeta = 1.5\n")
        assert config.beta == 1.5

    def test_volumes_out_of_order_diagnosed(self):
        with pytest.raises(ConfigError, match="volume"):
            sa.parse_config("volume = 3\nvolume = 2\n")

    @pytest.mark.parametrize("text, line", [
        ("volume = 2\nvolume = 2\n", 2),
        ("volume = 1\nvolume = 3\nvolume = 2\n", 3),
    ], ids=["equal", "smaller"])
    def test_volume_order_diagnosed_at_offending_line(self, text, line):
        [message] = diagnostics(text)
        assert message.startswith(f"line {line}: volume: volumes must be strictly increasing")

    def test_invalid_model_gets_one_diagnostic(self):
        assert diagnostics("model = foo\n") == ["line 1: model: must be 'tfim' or 'generic', got 'foo'"]

    def test_docs_key_table_lists_the_parsed_keys(self):
        assert set(documented_keys()) == set(_KEYS)

    def test_documented_defaults_are_the_dataclass_defaults(self):
        defaults = sa.ExperimentConfig()
        for key, raws in documented_keys().items():
            spec = _KEYS[key]
            values = tuple(spec.rule(raw) for raw in raws)
            if spec.repeated:
                documented = values
            else:
                documented = values[0] if values else None  # "-": no default
            assert documented == getattr(defaults, spec.attr), key

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            sa.parse_config("volumes = 3\n")

    def test_negative_beta_diagnosed_with_line(self):
        with pytest.raises(ConfigError, match=r"line 2: beta"):
            sa.parse_config("model = tfim\nbeta = -2.0\n")

    def test_nan_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            sa.parse_config("beta = nan\n")

    def test_repeated_scalar_rejected(self):
        with pytest.raises(ConfigError, match="repeated"):
            sa.parse_config("beta = 1\nbeta = 2\n")

    def test_zero_delta_rejected(self):
        with pytest.raises(ConfigError, match="delta"):
            sa.parse_config("delta = 0\n")

    def test_boundary_cell_parsed(self):
        config = sa.parse_config(
            "boundary = cell\nboundary_periods = 2\nboundary_cell = +1; -1\n"
        )
        assert config.boundary_periods == (2,)
        assert config.boundary_cell == (1, -1)

    def test_h_ref_fixed_value(self):
        config = sa.parse_config("h_ref = 0.5\n")
        assert config.h_ref == 0.5

    def test_generic_model_lambda_warning(self):
        config = sa.parse_config(
            "model = generic\n"
            "lambda = 0.2\n"
            "term.0.support = 0\n"
            "term.0.classical = -1, 1\n"
        )
        assert any("quantum" in w for w in config.warnings)

    def test_generic_needs_terms(self):
        with pytest.raises(ConfigError, match="term"):
            sa.parse_config("model = generic\n")

    def test_term_with_tfim_model_rejected(self):
        with pytest.raises(ConfigError, match="generic"):
            sa.parse_config("term.0.support = 0\nterm.0.classical = 0, 0\n")


class TestGenericModel:
    TEXT = (
        "model = generic\n"
        "lambda = 0.2\n"
        "term.0.support = 0; 1\n"
        "term.0.classical = -1, 1, 1, -1\n"
        "term.1.support = 0\n"
        "term.1.classical = -0.5, 0.5\n"
        "term.1.quantum = 0,1,-0.2,0; 1,0,-0.2,0\n"
    )

    def test_matches_tfim_preset(self):
        config = sa.parse_config(self.TEXT)
        generic = sa.build_interaction(config)
        preset = sa.preset_tfim(1.0, 0.5, 0.2)
        volume = sa.chain(4)
        boundary = sa.GroundStateConfig.uniform(1, +1)
        a = sa.assemble_hamiltonian(generic, volume, boundary)
        b = sa.assemble_hamiltonian(preset, volume, boundary)
        assert np.abs(a - b).max() <= 1e-14

    def test_non_hermitian_quantum_rejected(self):
        text = (
            "model = generic\n"
            "term.0.support = 0\n"
            "term.0.classical = 0, 0\n"
            "term.0.quantum = 0,1,1,0\n"
        )
        config = sa.parse_config(text)
        with pytest.raises(ConfigError, match="Hermitian"):
            sa.build_interaction(config)


FREE_CONFIG = """
model = tfim
J = 0
h_field = 0
lambda = 0
beta = 2.0
volume = 1
volume = 2
volume = 3
delta = 0.15
"""

ISING_CONFIG = """
model = tfim
J = 1.0
h_field = 0.5
lambda = 0
beta = 2.0
volume = 1
volume = 2
delta = 0.15
"""


class TestSweep:
    def test_free_model_rows(self, tmp_path):
        cfg = tmp_path / "free.cfg"
        cfg.write_text(FREE_CONFIG, encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        for row in rows_of(tmp_path / "out" / "sweep.csv"):
            n_sites = int(row["n_sites"])
            assert float(row["S_bits"]) == pytest.approx(n_sites, abs=1e-9)
            assert float(row["h_bits"]) == pytest.approx(1.0, abs=1e-9)
            assert float(row["typical_mass"]) == pytest.approx(1.0, abs=1e-12)
            assert float(row["identity_residual"]) <= 1e-10

    def test_classical_ising_matches_enumeration(self, tmp_path):
        cfg = tmp_path / "ising.cfg"
        cfg.write_text(ISING_CONFIG, encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        for row in rows_of(tmp_path / "out" / "sweep.csv"):
            n_sites = int(row["n_sites"])
            oracle = classical_chain_entropy_bits(n_sites, 1.0, 0.5, 2.0)
            assert float(row["S_bits"]) == pytest.approx(oracle, abs=1e-10)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(ISING_CONFIG + "seed = 7\n", encoding="utf-8")
        for out in ("a", "b"):
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / out), "--quiet"]) == 0
        for name in ("sweep.csv", "aep.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_huge_rate_counts_every_state(self, tmp_path):
        cfg = tmp_path / "rate.cfg"
        cfg.write_text(ISING_CONFIG + "rate = 1e300\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        for row in rows_of(tmp_path / "out" / "aep.csv"):
            assert float(row["best_rate_mass[R=1e+300]"]) == pytest.approx(1.0, abs=1e-12)

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("beta = -1\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2

    def test_cap_exceeded_exits_3(self, tmp_path):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("volume = 10\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3

    def test_max_qubits_override_lowers_cap(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("volume = 2\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--max-qubits", "3"]) == 3

    def test_negative_seed_override_exits_2(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(ISING_CONFIG, encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--seed", "-5"]) == 2

    @pytest.mark.parametrize("key, value", [("seed", "-5"), ("max_qubits", "0")])
    def test_flag_fails_like_config_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(ISING_CONFIG, encoding="utf-8")
        flag = "--" + key.replace("_", "-")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), flag, value]) == 2
        [from_config] = diagnostics(f"{key} = {value}\n")
        assert capsys.readouterr().err == f"config error: {from_config.removeprefix('line 1: ')}\n"

    def test_cell_boundary_sweep_runs(self, tmp_path, capsys):
        cfg = tmp_path / "neel.cfg"
        cfg.write_text(
            ISING_CONFIG
            + "boundary = cell\nboundary_periods = 2\nboundary_cell = +1; -1\n",
            encoding="utf-8",
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err
        assert "not a classical ground state" in err

    def test_no_out_dir_exits_2(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FREE_CONFIG, encoding="utf-8")
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_out_in_config_used(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(ISING_CONFIG + f"out = {tmp_path / 'fromcfg'}\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--quiet"]) == 0
        assert (tmp_path / "fromcfg" / "sweep.csv").exists()

    def test_seed_override_changes_nothing_deterministic(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(ISING_CONFIG, encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o1"),
                     "--seed", "42", "--quiet"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o2"),
                     "--seed", "42", "--quiet"]) == 0
        assert (tmp_path / "o1" / "sweep.csv").read_bytes() == (tmp_path / "o2" / "sweep.csv").read_bytes()


class TestGenericSweep:
    def test_generic_model_sweep_matches_preset_sweep(self, tmp_path):
        preset_cfg = tmp_path / "preset.cfg"
        preset_cfg.write_text(
            "model = tfim\nJ = 1.0\nh_field = 0.5\nlambda = 0.2\nbeta = 2.0\n"
            "volume = 1\nvolume = 2\nseed = 11\n",
            encoding="utf-8",
        )
        generic_cfg = tmp_path / "generic.cfg"
        generic_cfg.write_text(
            "model = generic\nlambda = 0.2\nbeta = 2.0\n"
            "volume = 1\nvolume = 2\nseed = 11\n"
            "term.0.support = 0; 1\n"
            "term.0.classical = -1, 1, 1, -1\n"
            "term.1.support = 0\n"
            "term.1.classical = -0.5, 0.5\n"
            "term.1.quantum = 0,1,-0.2,0; 1,0,-0.2,0\n",
            encoding="utf-8",
        )
        for name, cfg in (("p", preset_cfg), ("g", generic_cfg)):
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / name), "--quiet"]) == 0
        assert (tmp_path / "p" / "sweep.csv").read_bytes() == (tmp_path / "g" / "sweep.csv").read_bytes()


class TestOtherSubcommands:
    def test_spectrum_dump(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(ISING_CONFIG, encoding="utf-8")
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "s"), "--quiet"]) == 0
        rows = rows_of(tmp_path / "s" / "spectrum_n1.csv")
        assert len(rows) == 8
        energies = [float(r["energy"]) for r in rows]
        assert energies == sorted(energies)
        log2k = np.array([float(r["log2_kappa"]) for r in rows])
        assert np.exp2(log2k).sum() == pytest.approx(1.0, abs=1e-12)

    def test_codec_demo(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(ISING_CONFIG, encoding="utf-8")
        assert main(["codec-demo", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "fidelity=" in out
        lines = (tmp_path / "c" / "codebook_n2.txt").read_text().splitlines()
        assert lines  # codeword then eigenstate index
        word, index = lines[0].split()
        assert set(word) <= {"0", "1"}
        assert index.isdigit()

    def test_cli_import_loads_no_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        probe = "import sys, spinaep.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_check_suite_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("ok") >= 6

    def test_codec_demo_empty_window_exits_4(self, tmp_path, capsys):
        # at beta=0.5 the five-site window at delta=0.15 holds no states
        cfg = tmp_path / "warm.cfg"
        cfg.write_text(
            "model = tfim\nbeta = 0.5\nvolume = 1\nvolume = 2\ndelta = 0.15\n",
            encoding="utf-8",
        )
        assert main(["codec-demo", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "numeric failure: empty typical subspace in codec-demo at n=2, delta=0.15"
        ]
