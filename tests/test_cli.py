"""Tests for the command line interface and its exit codes."""

import numpy as np
import pytest

from chainopt.cli import main


@pytest.fixture
def cloud_file(tmp_path):
    path = tmp_path / "cloud.txt"
    lines = ["# dim=1"] + [f"{x:.3f}" for x in np.linspace(0, 1, 12)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def matrix_file(tmp_path):
    n = 6
    D = np.ones((n, n)) - np.eye(n)
    rows = [str(n)] + [" ".join(f"{v:g}" for v in row) for row in D]
    path = tmp_path / "dist.txt"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestCover:
    def test_greedy_cover_csv(self, tmp_path, cloud_file):
        out = tmp_path / "cover.csv"
        code = main(["cover", "--space", cloud_file, "--epsilon", "0.2",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "center_id,order"
        assert len(lines) > 1

    def test_exact_mode(self, tmp_path, cloud_file):
        out = tmp_path / "cover.csv"
        assert main(["cover", "--space", cloud_file, "--epsilon", "0.5",
                     "--mode", "exact", "--out", str(out)]) == 0

    def test_missing_space_file(self, tmp_path):
        code = main(["cover", "--space", str(tmp_path / "none.txt"),
                     "--epsilon", "0.5", "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_non_numeric_matrix_entry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "dist.txt"
        path.write_text("2\n0 1\nabc 0\n")
        code = main(["cover", "--space", str(path), "--epsilon", "0.5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text,what", [
        ("# dim=1\n0\nnan\n1\n", "coordinate"),
        ("# dim=1\n0\ninf\n1\n", "coordinate"),
        ("2\n0 nan\nnan 0\n", "distance")], ids=["nan-cloud", "inf-cloud", "nan-matrix"])
    def test_non_finite_space_exits_2(self, tmp_path, capsys, text, what):
        path = tmp_path / "space.txt"
        path.write_text(text)
        code = main(["cover", "--space", str(path), "--epsilon", "0.5",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"every {what} must be finite" in err
        assert "symmetric" not in err

    def test_bad_epsilon(self, tmp_path, cloud_file):
        code = main(["cover", "--space", cloud_file, "--epsilon", "-1",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2


class TestTreeBuild:
    def test_geometric_build(self, tmp_path, cloud_file):
        out = tmp_path / "tree.txt"
        code = main(["tree", "build", "--space", cloud_file,
                     "--schedule", "geometric", "--u", "2.0", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# schedule=geometric")
        assert lines[3] == "node_id,depth,location_id,parent_id,is_pruned,radius,value"

    def test_entropy_build_from_matrix(self, tmp_path, matrix_file):
        out = tmp_path / "tree.txt"
        code = main(["tree", "build", "--space", matrix_file,
                     "--schedule", "entropy", "--out", str(out)])
        assert code == 0
        assert out.exists()


class TestOptimize:
    def test_writes_regret_csv(self, tmp_path, cloud_file):
        out = tmp_path / "run.csv"
        code = main(["optimize", "--space", cloud_file, "--kernel", "se:ls=0.3",
                     "--t", "12", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "iter,depth,u_i,point_id,ucb,y,inst_regret,cum_regret,simple_regret"
        assert len(lines) == 13

    def test_deterministic(self, tmp_path, cloud_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["optimize", "--space", cloud_file, "--t", "8",
                         "--seed", "5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_matrix_space_rejected(self, tmp_path, matrix_file):
        code = main(["optimize", "--space", matrix_file, "--t", "3",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2


class TestValidateCommands:
    def test_lemmas_quick(self, tmp_path, capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("trials = 5000\n")
        out = tmp_path / "report.csv"
        code = main(["validate-lemmas", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert "[PASS]" in capsys.readouterr().out
        assert out.exists()

    def test_lower_star(self, tmp_path, capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("space = star:n=32\nu = 1.0\ntrials = 200\n")
        assert main(["validate-lower", "--config", str(cfg)]) == 0
        assert "ratio_q05" in capsys.readouterr().out

    def test_upper_quick(self, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("space = grid:dim=1,per_dim=25\nkernel = se:ls=0.2\n"
                       "schedule = entropy\ntrials = 200\n")
        assert main(["validate-upper", "--config", str(cfg)]) == 0

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("a = 1.0\n")
        assert main(["validate-lemmas", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("spec", ["grid:dim=x", "line:n=abc", "star:n=1.5",
                                      "ellipsoid:axes=1:x"])
    def test_non_numeric_space_option_exits_2(self, tmp_path, spec):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(f"space = {spec}\ntrials = 10\n")
        assert main(["validate-upper", "--config", str(cfg)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["validate-lemmas", "--config", str(tmp_path / "no.cfg")]) == 2

    def test_failed_claim_exits_1(self, tmp_path, capsys):
        # a tiny star prunes, but its root is the argmax too often for the
        # ratio percentile claim, which is a legitimate reported failure
        cfg = tmp_path / "v.cfg"
        cfg.write_text("space = star:n=9\nu = 1.0\ntrials = 2000\nseed_base = 13\n")
        assert main(["validate-lower", "--config", str(cfg)]) == 1
        assert "[FAIL]" in capsys.readouterr().out

