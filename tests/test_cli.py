"""End-to-end command-line behavior, run in-process through main()."""

import argparse
import csv
import dataclasses
import hashlib
import importlib
import json
import math
import os
import pkgutil
import platform
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy

import certrec
from certrec import base_rec, bounds, certify, cli, ensemble, oracle, ratings

from conftest import (neumaier_sum, reference_bounds, reference_holds,
                      reference_save_split, reference_save_votes,
                      reference_votes_file)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliwork")
    rng = np.random.default_rng(7)
    lines = []
    for u in range(1, 31):
        items = rng.choice(24, size=int(rng.integers(8, 16)), replace=False) + 1
        for i in sorted(int(x) for x in items):
            lines.append(f"{u}\t{i}\t{int(rng.integers(1, 6))}\t881250949")
    data = root / "ratings.tsv"
    data.write_text("\n".join(lines) + "\n")
    return root, str(data)


@pytest.fixture(scope="module")
def split(dataset):
    root, data = dataset
    out = str(root / "split.txt")
    assert cli.main(["ingest", "--data", data, "--out", out, "--seed", "3"]) == 0
    return out


@pytest.fixture(scope="module")
def votes(dataset, split):
    root, _ = dataset
    out = str(root / "votes.txt")
    assert cli.main(["train", "--split", split, "--algo", "ir", "--T", "200",
                     "--s", "8", "--seed", "5", "--out", out]) == 0
    return out


class TestIngest:
    def test_outputs(self, dataset, split):
        root, _ = dataset
        assert os.path.exists(split)
        assert os.path.exists(split + ".ids.csv")
        manifest = json.load(open(split + ".manifest.json"))
        assert manifest["command"] == "ingest"
        assert manifest["params"]["seed"] == 3
        with open(split + ".ids.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["kind", "internal", "external"]
        users = [r for r in rows if r[0] == "user"]
        assert users[0][1] == "0" and users[0][2] == "1"

    def test_missing_file_is_error_exit(self, dataset, capsys):
        root, _ = dataset
        code = cli.main(["ingest", "--data", str(root / "nope.tsv"),
                         "--out", str(root / "x")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_repeated_rating_names_its_line(self, tmp_path, capsys):
        # the later of the two lines, counted with the blank one, and the
        # file's own ids
        data = tmp_path / "repeat.tsv"
        data.write_text("7\t30\t4\t1\n\n9\t31\t2\t1\n7\t30\t5\t1\n")
        out = str(tmp_path / "split.txt")
        assert cli.main(["ingest", "--data", str(data), "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {data}: line 4: duplicate rating of "
                                f"user 7, item 30 (first on line 1)\n")
        assert not os.path.exists(out)


class TestTrain:
    def test_votes_file(self, votes):
        vc = ensemble.load_votes(votes)
        assert vc.T == 200 and vc.s == 8 and vc.algo == "ir"
        manifest = json.load(open(votes + ".manifest.json"))
        assert manifest["params"]["T"] == 200

    def test_chunked_resume_identical(self, dataset, split, votes):
        root, _ = dataset
        out = str(root / "votes_chunked.txt")
        code = cli.main(["train", "--split", split, "--algo", "ir", "--T",
                         "200", "--s", "8", "--seed", "5", "--out", out,
                         "--chunk-size", "70", "--max-chunks", "2"])
        assert code == 3
        assert os.path.exists(out + ".partial")
        assert not os.path.exists(out)
        code = cli.main(["train", "--split", split, "--algo", "ir", "--T",
                         "200", "--s", "8", "--seed", "5", "--out", out,
                         "--chunk-size", "70", "--resume"])
        assert code == 0
        assert open(out, "rb").read() == open(votes, "rb").read()
        assert not os.path.exists(out + ".partial")

    def test_complete_partial_is_promoted(self, dataset, split, tmp_path,
                                          monkeypatch):
        # votes are saved once per chunk, to the partial only, which then
        # becomes --out; a crash before that rename leaves a complete
        # partial, which --resume promotes without training or writing
        root, _ = dataset
        out = str(root / "votes_promoted.txt")
        train, tests, _ = ratings.load_split(split)
        want = str(tmp_path / "want.txt")
        ensemble.save_votes(want, ensemble.VoteCounts(
            T=200, n_prime=1, s=8, master_seed=5, algo="ir",
            counts=ensemble.accumulate_votes(train, "ir", base_rec.IRParams(),
                                             8, 1, 5, 0, 200),
            params=ensemble.params_digest("ir", base_rec.IRParams()),
            split=ratings.split_digest(train, tests)))
        real_save, saved = ensemble.save_votes, []

        def spy(path, vc):
            saved.append(path)
            real_save(path, vc)

        monkeypatch.setattr(ensemble, "save_votes", spy)
        argv = ["train", "--split", split, "--algo", "ir", "--T", "200",
                "--s", "8", "--seed", "5", "--out", out, "--chunk-size", "70"]
        assert cli.main(argv) == 0
        assert saved == [out + ".partial"] * 3
        assert not os.path.exists(out + ".partial")
        assert open(out, "rb").read() == open(want, "rb").read()
        os.replace(out, out + ".partial")
        monkeypatch.setattr(ensemble, "accumulate_votes", None)
        assert cli.main(argv + ["--resume"]) == 0
        assert saved == [out + ".partial"] * 3
        assert not os.path.exists(out + ".partial")
        assert open(out, "rb").read() == open(want, "rb").read()

    def test_crash_after_partial_write_resumes_exactly(self, dataset, split,
                                                       votes, monkeypatch):
        # the process dies right after the second chunk's partial is on disk;
        # the partial alone must say how many members it already holds
        root, _ = dataset
        out = str(root / "votes_crash.txt")
        real_save, calls = ensemble.save_votes, []

        def save_then_die(path, vc):
            real_save(path, vc)
            calls.append(vc.T)
            if len(calls) == 2:
                raise RuntimeError("simulated kill")

        argv = ["train", "--split", split, "--algo", "ir", "--T", "200",
                "--s", "8", "--seed", "5", "--out", out, "--chunk-size", "70"]
        monkeypatch.setattr(ensemble, "save_votes", save_then_die)
        with pytest.raises(RuntimeError, match="simulated kill"):
            cli.main(argv)
        monkeypatch.setattr(ensemble, "save_votes", real_save)
        assert cli.main(argv + ["--resume"]) == 0
        assert open(out, "rb").read() == open(votes, "rb").read()

    def test_partial_is_a_prefix_of_a_larger_run(self, dataset, split, votes):
        root, _ = dataset
        out = str(root / "votes_grow.txt")
        argv = ["train", "--split", split, "--algo", "ir", "--s", "8",
                "--seed", "5", "--out", out, "--chunk-size", "70"]
        assert cli.main(argv + ["--T", "100", "--max-chunks", "1"]) == 3
        assert cli.main(argv + ["--T", "200", "--resume"]) == 0
        assert open(out, "rb").read() == open(votes, "rb").read()

    @pytest.mark.parametrize("max_chunks", ["3", "7"], ids=["exact", "more"])
    def test_max_chunks_that_finish_the_run(self, dataset, split, max_chunks,
                                            tmp_path, capsys):
        # 3 chunks of 40 finish T = 100: the run completes as one without
        # --max-chunks does, and the chunks past the end are never run
        root, _ = dataset
        argv = ["train", "--split", split, "--algo", "ir", "--T", "100",
                "--s", "8", "--seed", "5"]
        once = str(tmp_path / "votes_once.txt")
        assert cli.main(argv + ["--out", once]) == 0
        out = str(root / f"votes_max_chunks_{max_chunks}.txt")
        capsys.readouterr()
        assert cli.main(argv + ["--out", out, "--chunk-size", "40",
                                "--max-chunks", max_chunks]) == 0
        captured = capsys.readouterr()
        assert captured.out == (f"built 100 base models (s=8, N'=1, "
                                f"algo=ir) -> {out}\n")
        assert [line.split()[2] for line in captured.err.splitlines()] == [
            "t=40/100", "t=80/100", "t=100/100"]
        assert not os.path.exists(out + ".partial")
        assert os.path.exists(out + ".manifest.json")
        assert open(out, "rb").read() == open(once, "rb").read()

    def test_resume_with_changed_params_rejected(self, dataset, split):
        root, _ = dataset
        out = str(root / "votes_stale.txt")
        assert cli.main(["train", "--split", split, "--algo", "ir", "--T",
                         "100", "--s", "8", "--seed", "5", "--out", out,
                         "--chunk-size", "40", "--max-chunks", "1"]) == 3
        code = cli.main(["train", "--split", split, "--algo", "ir", "--T",
                         "100", "--s", "7", "--seed", "5", "--out", out,
                         "--chunk-size", "40", "--resume"])
        assert code == 2

    def test_resume_with_changed_base_model_params_rejected(self, dataset,
                                                            split, tmp_path):
        # a partial built at the default ir.k=50 must not be continued at k=3
        root, _ = dataset
        out = str(root / "votes_k.txt")
        argv = ["train", "--split", split, "--algo", "ir", "--T", "100",
                "--s", "8", "--seed", "5", "--out", out, "--chunk-size", "40"]
        assert cli.main(argv + ["--max-chunks", "1"]) == 3
        conf = tmp_path / "k3.conf"
        conf.write_text("ir.k=3\n")
        assert cli.main(argv + ["--config", str(conf), "--resume"]) == 2
        # the matching configuration still resumes
        assert cli.main(argv + ["--resume"]) == 0

    def test_resume_refuses_partial_without_digest(self, dataset, split):
        root, _ = dataset
        out = str(root / "votes_nodigest.txt")
        argv = ["train", "--split", split, "--algo", "ir", "--T", "100",
                "--s", "8", "--seed", "5", "--out", out, "--chunk-size", "40"]
        assert cli.main(argv + ["--max-chunks", "1"]) == 3
        part = ensemble.load_votes(out + ".partial")
        assert part.params == ensemble.params_digest("ir", base_rec.IRParams())
        ensemble.save_votes(out + ".partial", dataclasses.replace(part, params=""))
        assert cli.main(argv + ["--resume"]) == 2

    def test_resume_refuses_partial_of_another_split(self, dataset, split,
                                                     capsys):
        # the same ratings split with another seed: same shape, other rows
        root, data = dataset
        other = str(root / "split_seed4.txt")
        assert cli.main(["ingest", "--data", data, "--out", other,
                         "--seed", "4"]) == 0
        out = str(root / "votes_other_split.txt")
        argv = ["train", "--algo", "ir", "--T", "100", "--s", "8", "--seed",
                "5", "--out", out, "--chunk-size", "40"]
        assert cli.main(argv + ["--split", split, "--max-chunks", "1"]) == 3
        capsys.readouterr()
        assert cli.main(argv + ["--split", other, "--resume"]) == 2
        err = capsys.readouterr().err
        assert out + ".partial" in err and other in err
        # its own split still resumes, and the votes record that split
        assert cli.main(argv + ["--split", split, "--resume"]) == 0
        digest = ratings.split_digest(*ratings.load_split(split)[:2])
        assert ensemble.load_votes(out).split == digest
        assert ratings.split_digest(*ratings.load_split(other)[:2]) != digest

    def test_resume_refuses_partial_without_split_digest(self, dataset, split):
        root, _ = dataset
        out = str(root / "votes_nosplit.txt")
        argv = ["train", "--split", split, "--algo", "ir", "--T", "100",
                "--s", "8", "--seed", "5", "--out", out, "--chunk-size", "40"]
        assert cli.main(argv + ["--max-chunks", "1"]) == 3
        part = ensemble.load_votes(out + ".partial")
        ensemble.save_votes(out + ".partial", dataclasses.replace(part, split=""))
        assert cli.main(argv + ["--resume"]) == 2

    def test_progress_on_stderr(self, dataset, split, votes, capsys):
        root, _ = dataset
        out = str(root / "votes_progress.txt")
        assert cli.main(["train", "--split", split, "--algo", "ir", "--T", "200",
                         "--s", "8", "--seed", "5", "--out", out,
                         "--chunk-size", "70"]) == 0
        captured = capsys.readouterr()
        assert captured.out == (f"built 200 base models (s=8, N'=1, algo=ir) "
                                f"-> {out}\n")
        lines = captured.err.splitlines()
        assert [line.split()[2] for line in lines] == [
            "t=70/200", "t=140/200", "t=200/200"]
        for line in lines:
            fields = dict(tok.split("=") for tok in line.split()[2:])
            assert float(fields["models_per_s"]) > 0
            assert float(fields["eta_s"]) >= 0
        assert lines[-1].endswith("eta_s=0.0")
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["params"]["models_per_s"] > 0
        assert open(out, "rb").read() == open(votes, "rb").read()

    def test_resume_refuses_partial_beyond_T(self, dataset, split):
        root, _ = dataset
        out = str(root / "votes_beyond.txt")
        argv = ["train", "--split", split, "--algo", "ir", "--s", "8",
                "--seed", "5", "--out", out, "--chunk-size", "40"]
        assert cli.main(argv + ["--T", "100", "--max-chunks", "1"]) == 3
        assert cli.main(argv + ["--T", "30", "--resume"]) == 2

    def test_s_larger_than_n_rejected(self, dataset, split):
        root, _ = dataset
        code = cli.main(["train", "--split", split, "--algo", "ir", "--T",
                         "10", "--s", "500", "--out", str(root / "v")])
        assert code == 2

    @pytest.mark.parametrize("flags", [("--T", "0"), ("--chunk-size", "0"),
                                       ("--chunk-size", "-1"),
                                       ("--threads", "0"), ("--threads", "-3"),
                                       ("--max-chunks", "0"),
                                       ("--max-chunks", "-3")],
                             ids=["T0", "chunk0", "chunk_negative", "threads0",
                                  "threads_negative", "max_chunks0",
                                  "max_chunks_negative"])
    def test_nonpositive_T_or_chunk_size_refused(self, dataset, split, flags,
                                                 capsys):
        root, _ = dataset
        out = str(root / "votes_nonpositive.txt")
        code = cli.main(["train", "--split", split, "--algo", "ir", "--T",
                         "20", "--s", "8", "--out", out, *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".partial")


class TestRecommend:
    def test_csv_output(self, split, votes, capsys):
        assert cli.main(["recommend", "--votes", votes, "--split", split,
                         "--user", "0", "--N", "4"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "user,rank,item,votes"
        assert len(out) == 5
        ranks = [int(line.split(",")[1]) for line in out[1:]]
        assert ranks == [1, 2, 3, 4]

    def test_N_from_config(self, split, votes, tmp_path, capsys):
        conf = tmp_path / "conf.txt"
        conf.write_text("N=2\n")
        assert cli.main(["recommend", "--votes", votes, "--split", split,
                         "--config", str(conf)]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["user", "rank", "item", "votes"]
        per_user = np.bincount([int(row[0]) for row in rows[1:]])
        assert per_user.tolist() == [2] * 30  # the split has 30 users

    @pytest.mark.parametrize("user", ["-1", "30"])  # the split has 30 users
    def test_user_out_of_range_refused(self, split, votes, user, capsys):
        assert cli.main(["recommend", "--votes", votes, "--split", split,
                         "--user", user]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("N", ["0", "-2"])
    def test_nonpositive_N_prints_nothing(self, split, votes, N, capsys):
        assert cli.main(["recommend", "--votes", votes, "--split", split,
                         "--N", N]) == 2
        captured = capsys.readouterr()
        assert "error: N must be positive" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["recommend", "evaluate"])
    @pytest.mark.parametrize("votes_are", ["smaller", "larger"])
    def test_votes_of_another_shape_refused(self, split, votes, topn_instance,
                                            command, votes_are, tmp_path,
                                            capsys):
        # the topn instance has 40 items, the module's split at most 24
        _, other_split, other_votes = topn_instance
        pair = (["--votes", votes, "--split", other_split]
                if votes_are == "smaller" else
                ["--votes", other_votes, "--split", split])
        out = str(tmp_path / "eval")
        extra = ["--out", out] if command == "evaluate" else []
        assert cli.main([command, *pair, *extra]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "vote counts" in captured.err
        assert captured.out == ""
        assert not os.path.exists(out)


@pytest.fixture(scope="module")
def other_split(dataset):
    """The module's ratings split with another seed: the same shape as the
    votes' split, other rows, another digest."""
    root, data = dataset
    out = str(root / "split_seed6.txt")
    assert cli.main(["ingest", "--data", data, "--out", out, "--seed", "6"]) == 0
    return out


class TestVotesOfAnotherSplit:
    """Votes that record split= pair only with the split of that digest."""

    @pytest.mark.parametrize("command", ["recommend", "evaluate", "certify",
                                         "baseline"])
    def test_refused_naming_both_files(self, split, other_split, votes,
                                       command, tmp_path, capsys):
        assert ensemble.load_votes(votes).split == \
            ratings.split_digest(*ratings.load_split(split)[:2])
        out = str(tmp_path / command)
        extra = [] if command == "recommend" else ["--out", out]
        argv = [command, "--votes", votes, *extra]
        assert cli.main(argv + ["--split", other_split]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {votes} was not built on "
                                       f"{other_split}")
        assert captured.out == ""
        assert not os.path.exists(out)
        assert cli.main(argv + ["--split", split]) == 0

    def test_votes_without_split_digest_are_not_hashed(
            self, split, other_split, votes, tmp_path, monkeypatch, capsys):
        bare = str(tmp_path / "votes-bare.txt")
        ensemble.save_votes(bare, dataclasses.replace(ensemble.load_votes(votes),
                                                      split=""))

        def refuse(train, tests):
            raise AssertionError("a split was hashed for votes without split=")

        monkeypatch.setattr(ratings, "split_digest", refuse)
        assert cli.main(["recommend", "--votes", bare, "--split",
                         other_split]) == 0
        assert capsys.readouterr().out.startswith("user,rank,item,votes")


class TestCertify:
    def test_outputs_and_columns(self, dataset, split, votes):
        root, _ = dataset
        out = str(root / "cert")
        assert cli.main(["certify", "--votes", votes, "--split", split,
                         "--alpha", "0.2", "--e", "0,1,2", "--out", out]) == 0
        with open(os.path.join(out, "per_user.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["user", "e", "r", "alpha"]
        assert {r[1] for r in rows[1:]} == {"0", "1", "2"}
        with open(os.path.join(out, "aggregate.csv")) as fh:
            agg = list(csv.reader(fh))
        assert agg[0] == ["e", "cert_precision", "cert_recall", "cert_f1",
                          "n_users"]
        assert len(agg) == 4
        # nonincreasing certified precision across the three budgets
        precs = [float(r[1]) for r in agg[1:]]
        assert precs[0] >= precs[1] >= precs[2]

    @pytest.mark.parametrize("damage", ["cut", "header-only", "over-T-nprime"])
    def test_damaged_votes_refused(self, dataset, split, votes, damage,
                                   capsys):
        root, _ = dataset
        raw = open(votes, "rb").read()
        # the header's fields but rows=, which reference_votes_file writes
        head = raw.partition(b"\n")[0].decode()[len("#votes v2 "):]
        head = head.rpartition(" rows=")[0]
        bad = root / f"votes-{damage}.bin"
        if damage == "cut":  # mid-row
            bad.write_bytes(raw[:-5])
        elif damage == "header-only":
            reference_votes_file(str(bad), head, [])
        else:
            # one vote more for user 0 than T=200 models of N'=1 can cast
            reference_votes_file(str(bad), head, [(0, 0, 150), (0, 1, 51)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body reads silently
            code = cli.main(["certify", "--votes", str(bad), "--split", split,
                             "--e", "0", "--out", str(root / f"cert-{damage}")])
        err = capsys.readouterr().err
        if damage == "header-only":
            assert code == 0 and not err
        else:
            assert code == 2 and err.startswith(f"error: {bad}")
        if damage == "over-T-nprime":
            assert "user 0 has 201 votes, more than T * nprime = 200" in err

    @pytest.mark.parametrize("command", ["certify", "recommend", "evaluate",
                                         "baseline"])
    def test_v1_votes_refused(self, dataset, split, votes, command, capsys):
        # the v1 text of the votes: every reader refuses it, naming the file
        root, _ = dataset
        vc = ensemble.load_votes(votes)
        v1 = root / "votes-v1.txt"
        rows = "".join(f"{u},{i},{vc.counts[u, i]}\n"
                       for u, i in zip(*np.nonzero(vc.counts)))
        v1.write_text(f"#votes v1 n={vc.n} m={vc.m} T={vc.T} s={vc.s} "
                      f"nprime={vc.n_prime} algo={vc.algo} seed={vc.master_seed} "
                      f"params={vc.params} split={vc.split}\n{rows}")
        out = [] if command == "recommend" else ["--out", str(root / f"v1-{command}")]
        assert cli.main([command, "--votes", str(v1), "--split", split, *out]) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err.startswith(f"error: {v1}: ") and "retrain" in got.err

    def test_v1_votes_not_utf8_refused(self, dataset, split, capsys):
        # a v1 body is never decoded, so a byte that is not UTF-8 gets the
        # retrain refusal, not the codec's message
        root, _ = dataset
        v1 = root / "votes-v1-bytes.txt"
        v1.write_bytes(b"#votes v1 n=2 m=2 T=1 s=1 nprime=1 algo=ir seed=0\n"
                       b"0,1,\xff\n")
        assert cli.main(["recommend", "--votes", str(v1), "--split", split]) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err.startswith(f"error: {v1}: ") and "retrain" in got.err
        assert "codec" not in got.err

    @pytest.mark.parametrize("name", ["per_user.csv", "aggregate.csv",
                                      "aggregate.json", "manifest.json"])
    def test_failed_rewrite_keeps_the_previous_file(
            self, dataset, split, votes, name, monkeypatch, capsys):
        # a second certify into the same --out fails before it renames name
        # into place: the first run's file stays, and no .tmp is left behind
        root, _ = dataset
        out = str(root / f"cert-twice-{name}")
        argv = ["certify", "--votes", votes, "--split", split, "--out", out]
        assert cli.main(argv + ["--e", "0:1"]) == 0
        first = open(os.path.join(out, name), "rb").read()
        real = os.replace

        def replace(src, dst):
            if os.path.basename(dst) == name:
                raise OSError("No space left on device")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert cli.main(argv + ["--e", "0:2"]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert open(os.path.join(out, name), "rb").read() == first
        assert not [f for f in os.listdir(out) if f.endswith(".tmp")]

    def test_bagging_columns(self, dataset, split, votes):
        root, _ = dataset
        out = str(root / "cert_bag")
        assert cli.main(["certify", "--votes", votes, "--split", split,
                         "--alpha", "0.2", "--e", "0:1", "--baseline",
                         "bagging", "--out", out]) == 0
        with open(os.path.join(out, "aggregate.csv")) as fh:
            agg = list(csv.reader(fh))
        assert agg[0][-3:] == ["bag_precision", "bag_recall", "bag_f1"]
        for row in agg[1:]:
            assert float(row[1]) >= float(row[-3]) - 1e-12

    def test_bagging_estimates_bounds_once_per_user(self, dataset, split,
                                                    votes, monkeypatch):
        # both rules read one table of bounds, one row per certified user
        root, _ = dataset
        out = str(root / "cert_bag_once")
        real, calls = certify.estimate_table, []

        def counted(*args, **kwargs):
            calls.append([int(u) for u in args[1]])
            return real(*args, **kwargs)

        monkeypatch.setattr(certify, "estimate_table", counted)
        assert cli.main(["certify", "--votes", votes, "--split", split,
                         "--alpha", "0.2", "--e", "0:2", "--baseline",
                         "bagging", "--out", out]) == 0
        with open(os.path.join(out, "per_user.csv")) as fh:
            certified = [int(r["user"]) for r in csv.DictReader(fh)
                         if r["e"] == "0"]
        assert calls == [certified] and certified

    def test_bagging_columns_match_baseline_command(self, dataset, split,
                                                     votes):
        root, _ = dataset
        cert, bag = str(root / "cert_vs_bag"), str(root / "bag_vs_cert")
        common = ["--votes", votes, "--split", split, "--alpha", "0.2",
                  "--e", "0:3"]
        assert cli.main(["certify", *common, "--baseline", "bagging",
                         "--out", cert]) == 0
        assert cli.main(["baseline", *common, "--out", bag]) == 0
        with open(os.path.join(cert, "aggregate.csv")) as fh:
            joint = list(csv.DictReader(fh))
        with open(os.path.join(bag, "baseline.csv")) as fh:
            alone = list(csv.DictReader(fh))
        assert [(r["e"], r["bag_precision"], r["bag_recall"], r["bag_f1"])
                for r in joint] == \
            [(r["e"], r["cert_precision"], r["cert_recall"], r["cert_f1"])
             for r in alone]

    def test_exact_flag(self, dataset, split, votes):
        # every comparison is exact already; the old switches are refused
        root, _ = dataset
        out = str(root / "cert_exact")
        for command in ("certify", "baseline"):
            for flags in (["--exact"], ["--mode", "exact"]):
                with pytest.raises(SystemExit) as exit_:
                    cli.main([command, "--votes", votes, "--split", split,
                              "--e", "0", "--out", out, *flags])
                assert exit_.value.code == 2
        assert not os.path.exists(out)

    def test_clean_topn_target(self, dataset, split, votes):
        root, _ = dataset
        out = str(root / "cert_topn")
        assert cli.main(["certify", "--votes", votes, "--split", split,
                         "--alpha", "0.2", "--e", "0", "--target",
                         "clean-topn", "--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["params"]["target"] == "clean-topn"

    # on this dataset every certificate is 0, so these pin the file format;
    # TestCleanTopnFloors pins certificates well above 0
    PINNED = {"per_user.csv": "880afc1f5cfebfbf1e46b1c6fc3693a5",
              "aggregate.csv": "cadde80ba06262397a6f5db1272fec5d",
              "aggregate.json": "4537eaea56d9940a77cfc3efc0b369fe",
              "baseline.csv": "08ec6738b89839dd2d633eaedc57b32e"}
    # per_user.csv of the former approx and exact modes
    FORMER = {"approx": "a731b5f9e243c94c0ef0ac3477ef055c",
              "exact": "81c6b5b7c152edcf7114c2e3f8a569d2"}

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_output_bytes_pinned(self, split, votes, tmp_path, mode):
        assert _output_digests(tmp_path, [
            "--votes", votes, "--split", split, "--alpha", "0.2", "--e",
            "0:3"]) == self.PINNED
        assert _former_digest(tmp_path, mode) == self.FORMER[mode]

    def test_empty_e_rejected(self, dataset, split, votes):
        root, _ = dataset
        assert cli.main(["certify", "--votes", votes, "--split", split,
                         "--e", ",", "--out", str(root / "x")]) == 2

    @pytest.mark.parametrize("command", ["certify", "baseline"])
    @pytest.mark.parametrize("N", ["0", "-1"])
    def test_nonpositive_N_refused(self, dataset, split, votes, command, N,
                                   capsys):
        root, _ = dataset
        out = str(root / f"N_{command}_{N}")
        assert cli.main([command, "--votes", votes, "--split", split,
                         "--N", N, "--e", "0:1", "--out", out]) == 2
        assert "error: N must be >= 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["certify", "baseline"])
    @pytest.mark.parametrize("alpha", ["0", "1", "1.5"])
    def test_alpha_outside_unit_interval_refused(self, dataset, split, votes,
                                                 command, alpha, capsys):
        root, _ = dataset
        out = str(root / f"alpha_{command}_{alpha}")
        assert cli.main([command, "--votes", votes, "--split", split,
                         "--alpha", alpha, "--e", "0", "--out", out]) == 2
        assert "error:" in capsys.readouterr().err
        assert not os.path.exists(out)


def _output_digests(root, args):
    """blake2b-128 digests of per_user.csv, aggregate.csv and aggregate.json
    from `certify --baseline bagging`, and of baseline.csv from `baseline`,
    both run with args."""
    cert, bag = str(root / "cert"), str(root / "bag")
    assert cli.main(["certify", *args, "--baseline", "bagging",
                     "--out", cert]) == 0
    assert cli.main(["baseline", *args, "--out", bag]) == 0
    return {name: _file_digest(os.path.join(
        bag if name == "baseline.csv" else cert, name)) for name in (
        "per_user.csv", "aggregate.csv", "aggregate.json", "baseline.csv")}


def _under_each_sum(monkeypatch):
    """Yields twice: under the builtin sum, then with Python 3.12's
    compensated sum set as a global of every certrec module, where it shadows
    the builtin. Output bytes that hold under both are the same on Python
    3.10-3.13, whichever sum the running version has."""
    yield
    assert neumaier_sum([0.1] * 10) == 1.0  # 0.9999999999999999 left to right
    names = [m.name for m in pkgutil.iter_modules(certrec.__path__)]
    for module in [certrec] + [importlib.import_module(f"certrec.{name}")
                               for name in names]:
        monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)
    yield


def _file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=16).hexdigest()


def _former_digest(root, mode):
    """Digest of the per_user.csv left by _output_digests with the column
    the former --mode flag wrote (between r and alpha) put back: both former
    modes certified the sizes the one exact predicate certifies."""
    with open(os.path.join(root, "cert", "per_user.csv"), newline="") as fh:
        rows = [row[:3] + [mode if k else "mode"] + row[3:]
                for k, row in enumerate(csv.reader(fh))]
    text = "".join(",".join(row) + "\r\n" for row in rows)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _write_tab(path, rated):
    """MovieLens tab file from {user: [(item, stars), ...]} (1-based ids)."""
    path.write_text("".join(f"{u}\t{i}\t{r}\t881250949\n"
                            for u, pairs in rated.items() for i, r in pairs))
    return str(path)


@pytest.fixture(scope="module")
def topn_instance(tmp_path_factory):
    """30 users x 40 items with 12 ratings each: the default split holds out
    3 per user, and T=2000 votes over s=10 certify some users' clean top-5
    beyond those 3 items."""
    root = tmp_path_factory.mktemp("topn")
    rng = np.random.default_rng(11)
    data = _write_tab(root / "ratings.tsv", {
        u: [(int(i), int(rng.integers(1, 6)))
            for i in sorted(rng.choice(40, size=12, replace=False) + 1)]
        for u in range(1, 31)})
    split, votes = str(root / "split.txt"), str(root / "votes.txt")
    assert cli.main(["ingest", "--data", data, "--out", split]) == 0
    assert cli.main(["train", "--split", split, "--s", "10", "--T", "2000",
                     "--out", votes]) == 0
    return root, split, votes


class TestCleanTopnFloors:
    @pytest.mark.parametrize("target", ["clean-topn", "test-items"])
    def test_split_layout_leaves_outputs_unchanged(self, topn_instance, target):
        # the v2 split, its v1 text, and that text with test rows first and
        # CRLF line ends, which go through the line-by-line parse
        root, split, votes = topn_instance
        train, tests, header = ratings.load_split(split)
        text = str(root / f"text-{target}.txt")
        reference_save_split(text, train, tests, header["seed"], header["fraction"])
        lines = open(text).read().splitlines()
        moved = str(root / f"moved-{target}.txt")
        with open(moved, "w", newline="") as fh:
            fh.write("".join(line + "\r\n" for line in [lines[0]] + sorted(
                lines[1:], key=lambda line: not line.startswith("test"))))
        outs = []
        for path in (split, text, moved):
            outs.append(str(root / f"cert-{target}-{len(outs)}"))
            assert cli.main(["certify", "--votes", votes, "--split", path,
                             "--target", target, "--N", "5", "--alpha", "0.2",
                             "--e", "0:2", "--baseline", "bagging",
                             "--out", outs[-1]]) == 0
        for name in ("per_user.csv", "aggregate.csv", "aggregate.json"):
            first, *rest = (open(os.path.join(o, name), "rb").read() for o in outs)
            assert rest == [first, first], name

    def test_v1_and_v2_inputs_give_identical_outputs(self, topn_instance):
        root, split, votes = topn_instance
        train, tests, header = ratings.load_split(split)
        # the v1 split's text, and the votes as the row-by-row v2 writer's
        pairs = {2: (split, votes), 1: (str(root / "split-v1.txt"),
                                        str(root / "votes-rows.bin"))}
        reference_save_split(pairs[1][0], train, tests, header["seed"],
                             header["fraction"])
        reference_save_votes(pairs[1][1], ensemble.load_votes(votes))
        runs = (("certify", ["--alpha", "0.2", "--target", "clean-topn",
                             "--e", "0:2", "--baseline", "bagging"],
                 ("per_user.csv", "aggregate.csv", "aggregate.json")),
                ("evaluate", ["--with-single-model"],
                 ("evaluate.json", "evaluate.csv")),
                ("baseline", ["--alpha", "0.2", "--e", "0:2"],
                 ("baseline.csv", "baseline.json")))
        for command, extra, names in runs:
            outs = {}
            for version, (split_path, votes_path) in pairs.items():
                out = str(root / f"{command}-v{version}")
                assert cli.main([command, "--votes", votes_path, "--split",
                                 split_path, "--N", "5", *extra,
                                 "--out", out]) == 0
                outs[version] = [open(os.path.join(out, name), "rb").read()
                                 for name in names]
            assert outs[1] == outs[2], command

    def test_floors_against_clean_topn(self, topn_instance):
        # r is counted over the clean top-N, so its floors divide by |I_u|;
        # dividing by |E_u| refused r > |E_u| and the command exited 2
        root, split, votes = topn_instance
        out = str(root / "cert_floors")
        assert cli.main(["certify", "--votes", votes, "--split", split,
                         "--target", "clean-topn", "--N", "5", "--alpha",
                         "0.2", "--e", "0:2", "--out", out]) == 0
        train, tests, _ = ratings.load_split(split)
        vc = ensemble.load_votes(votes)
        size = {u: len(items) for u, items in
                enumerate(ensemble.ensemble_recommend_all(vc, train, 5))}
        with open(os.path.join(out, "per_user.csv")) as fh:
            r = {(int(row["user"]), int(row["e"])): int(row["r"])
                 for row in csv.DictReader(fh)}
        assert any(r_u > tests.size(u) for (u, _), r_u in r.items())
        with open(os.path.join(out, "aggregate.json")) as fh:
            agg = json.load(fh)
        assert [row["e"] for row in agg] == [0, 1, 2]
        for row in agg:
            users = [u for u in range(train.n_users) if (u, row["e"]) in r]
            assert row["n_users"] == len(users) == train.n_users
            assert row["cert_precision"] == pytest.approx(
                sum(r[u, row["e"]] / 5 for u in users) / len(users))
            assert row["cert_recall"] == pytest.approx(
                sum(r[u, row["e"]] / size[u] for u in users) / len(users))


    # the same digests where certificates reach r = 4
    PINNED = {"per_user.csv": "e7477917650bdb441af83c97b936527c",
              "aggregate.csv": "fcea7c211eb7df6bb0e4d56d570b5b6a",
              "aggregate.json": "eeaee325885a193adec68a0e73d77526",
              "baseline.csv": "522ea342b51fc2fef12aea6aa4c2c64b"}
    FORMER = {"approx": "18d2f537343666ad7f5d32c29f83dd69",
              "exact": "9e49bc8f8e9b88cb5fc98d32c5993e3b"}

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_output_bytes_pinned(self, topn_instance, tmp_path, monkeypatch,
                                 mode):
        _, split, votes = topn_instance
        for _ in _under_each_sum(monkeypatch):
            assert _output_digests(tmp_path, [
                "--votes", votes, "--split", split, "--target", "clean-topn",
                "--N", "5", "--alpha", "0.2", "--e", "0:2"]) == self.PINNED
        assert _former_digest(tmp_path, mode) == self.FORMER[mode]


@pytest.fixture(scope="module")
def wide_instance(tmp_path_factory):
    """150 users x 120 items, more users than one row block of the sweep,
    with T=10,000 N'=1 vote counts drawn directly: each user sits in about
    s/n of the models and spreads those votes over its unrated items with
    power-law weights, so counts span a wide range of distinct values."""
    root = tmp_path_factory.mktemp("wide")
    rng = np.random.default_rng(31)
    n, m, T, s = 150, 120, 10_000, 20
    data = _write_tab(root / "ratings.tsv", {
        u: [(int(i), int(rng.integers(1, 6)))
            for i in sorted(rng.choice(m, size=int(rng.integers(12, 30)),
                                       replace=False) + 1)]
        for u in range(1, n + 1)})
    split, votes = str(root / "split.txt"), str(root / "votes.txt")
    assert cli.main(["ingest", "--data", data, "--out", split]) == 0
    train, _, _ = ratings.load_split(split)
    counts = np.zeros((n, m), dtype=np.int32)
    for u in range(n):
        free = np.setdiff1d(np.arange(m), train.rated_items(u))
        weights = (rng.permutation(len(free)) + 1.0) ** -1.2
        counts[u, free] = rng.multinomial(rng.binomial(T, s / n),
                                          weights / weights.sum())
    ensemble.save_votes(votes, ensemble.VoteCounts(
        T=T, n_prime=1, s=s, counts=counts, master_seed=0, algo="ir"))
    return root, split, votes


class TestWideInstancePinned:
    # recorded before certification moved to whole-matrix arrays; the
    # aggregate.json digests again once its rows lost the std_* keys
    PINNED = {
        "clean-topn": {"per_user.csv": "0520e375b239c12b6fa6e1c5dc97a08e",
                       "aggregate.csv": "a489d7e66607a13743c44da35d3499c8",
                       "aggregate.json": "6e26c058458d38cc5e8eda99b6c8786a",
                       "baseline.csv": "0b41fb7d73394d515eb5e31d9b3531f2"},
        "test-items": {"per_user.csv": "825f7d463b9bbec038a56506cbe6481e",
                       "aggregate.csv": "cf677f3a033b748fe02434e89c357ad6",
                       "aggregate.json": "7857e6a7488cf10c3f5047e82e9aae23",
                       "baseline.csv": "be6a5d760df1fc580f8fde5b73a43de8"},
    }

    @pytest.mark.parametrize("target", ["clean-topn", "test-items"])
    def test_output_bytes_pinned(self, wide_instance, tmp_path, monkeypatch,
                                 target):
        _, split, votes = wide_instance
        for _ in _under_each_sum(monkeypatch):
            assert _output_digests(tmp_path, [
                "--votes", votes, "--split", split, "--target", target,
                "--N", "10", "--e", "0:12"]) == self.PINNED[target]


class TestEvaluatePinned:
    # recorded while the means were still the builtin sum of Python 3.11
    PINNED = {"evaluate.json": "1b35fbe7190923207b59431c3ad89403",
              "evaluate.csv": "5ead8e2c938dd7624cd87c60a632915d"}

    def test_output_bytes_pinned(self, wide_instance, tmp_path, monkeypatch):
        _, split, votes = wide_instance
        out = str(tmp_path / "eval")
        for _ in _under_each_sum(monkeypatch):
            assert cli.main(["evaluate", "--votes", votes, "--split", split,
                             "--N", "10", "--with-single-model", "--out",
                             out]) == 0
            assert {name: _file_digest(os.path.join(out, name))
                    for name in self.PINNED} == self.PINNED


def _reference_verify_calls(split, votes, N, alpha, e_list) -> int:
    """Constraint evaluations a scalar radius search makes, user by user, on
    the reference bounds of each clean top-N: r' = 1, 2, ... is opened at
    the smallest e and its radius bisected below the last."""
    train, _, _ = ratings.load_split(split)
    vc = ensemble.load_votes(votes)
    n = train.n_users
    contexts = [bounds.make_context(n, e, vc.s) for e in sorted(set(e_list))]
    calls = 0
    for u, items in enumerate(ensemble.ensemble_recommend_all(vc, train, N)):
        if not len(items):
            continue
        lower, upper = reference_bounds(vc, u, items, alpha / n)

        def holds(r_prime, pos):
            nonlocal calls
            calls += 1
            return reference_holds(r_prime, lower, upper, contexts[pos], N,
                                   vc.n_prime)

        cap = len(contexts) - 1
        for r_prime in range(1, min(len(items), N) + 1):
            if not holds(r_prime, 0):
                break
            lo, hi = 0, cap + 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if holds(r_prime, mid) else (lo, mid)
            cap = lo
    return calls


class TestCertifyManifest:
    def test_manifest_reports_radii_and_counters(self, topn_instance):
        root, split, votes = topn_instance
        out = str(root / "cert_manifest")
        assert cli.main(["certify", "--votes", votes, "--split", split,
                         "--target", "clean-topn", "--N", "5", "--alpha",
                         "0.2", "--e", "2,0,1", "--baseline", "bagging",
                         "--out", out]) == 0
        params = json.load(open(os.path.join(out, "manifest.json")))["params"]
        assert params["verify_constraint_calls"] == _reference_verify_calls(
            split, votes, 5, 0.2, [2, 0, 1]) > 0
        fell = params["exact_fallbacks"]
        assert set(fell) == {"joint", "bagging"} and min(fell.values()) >= 0
        assert "mode" not in params
        with open(os.path.join(out, "per_user.csv")) as fh:
            rows = [(int(r["e"]), int(r["r"])) for r in csv.DictReader(fh)]
        want = {str(rp): [sum(1 for e, r in rows if e == at and r >= rp)
                          for at in (0, 1, 2)]
                for rp in range(1, max(r for _, r in rows) + 1)}
        hist = params["radius_histogram"]
        assert set(hist) == {"joint", "bagging"}
        assert hist["joint"] == want and want

    def test_same_run_twice_in_one_process(self, topn_instance):
        # nothing one run leaves in the process reaches the next manifest
        root, split, votes = topn_instance
        params = []
        for k in range(2):
            out = str(root / f"cert_repeat_{k}")
            assert cli.main(["certify", "--votes", votes, "--split", split,
                             "--target", "clean-topn", "--N", "5", "--alpha",
                             "0.2", "--e", "0:2", "--baseline", "bagging",
                             "--out", out]) == 0
            params.append(json.load(open(os.path.join(out, "manifest.json")))
                          ["params"])
        assert params[0] == params[1]

    def test_manifests_name_versions_and_votes_header(self, topn_instance,
                                                      tmp_path):
        # the votes' params= and split= as read (None when the header has
        # none), and the library versions, outside params
        root, split, votes = topn_instance
        vc = ensemble.load_votes(votes)
        assert len(vc.params) == len(vc.split) == 16
        bare = str(tmp_path / "bare.bin")
        reference_save_votes(bare, dataclasses.replace(vc, params="", split=""))
        versions = {"python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__}
        for path, want in ((votes, (vc.params, vc.split)), (bare, (None, None))):
            for command in ("certify", "evaluate", "baseline"):
                out = str(tmp_path / f"{command}-{want[0]}")
                extra = [] if command == "evaluate" else ["--e", "0:1"]
                assert cli.main([command, "--votes", path, "--split", split,
                                 "--N", "5", *extra, "--out", out]) == 0
                manifest = json.load(open(os.path.join(out, "manifest.json")))
                assert manifest["versions"] == versions
                got = manifest["params"]
                assert (got["votes_params"], got["votes_split"]) == want, command


class TestLogLevel:
    def test_info_goes_to_stderr_only(self, tmp_path):
        # user 12 has a single rating, so nothing is held out and certify
        # skips it with an INFO message
        rng = np.random.default_rng(4)
        rated = {u: [(int(i), int(rng.integers(1, 6)))
                     for i in sorted(rng.choice(10, size=6, replace=False) + 1)]
                 for u in range(1, 12)}
        rated[12] = [(3, 4)]
        data = _write_tab(tmp_path / "ratings.tsv", rated)
        split, votes = str(tmp_path / "split.txt"), str(tmp_path / "votes.txt")
        assert cli.main(["ingest", "--data", data, "--out", split]) == 0
        assert cli.main(["train", "--split", split, "--s", "4", "--T", "30",
                         "--out", votes]) == 0
        env = {**os.environ, "PYTHONPATH": os.path.dirname(
            os.path.dirname(certrec.__file__))}

        def run(*extra):
            return subprocess.run(
                [sys.executable, "-m", "certrec.cli", "certify", "--votes",
                 votes, "--split", split, "--e", "0:1", "--alpha", "0.2",
                 "--out", str(tmp_path / "cert"), *extra],
                capture_output=True, text=True, env=env, check=True)

        quiet, loud = run(), run("--log-level", "INFO")
        message = "skipped 1 users with empty target sets: [11]"
        assert message in loud.stderr and "INFO certrec.certify" in loud.stderr
        assert message not in quiet.stderr
        assert loud.stdout == quiet.stdout != ""


class TestEvaluateAndBaseline:
    def test_evaluate(self, dataset, split, votes, capsys):
        root, _ = dataset
        out = str(root / "eval")
        assert cli.main(["evaluate", "--votes", votes, "--split", split,
                         "--with-single-model", "--out", out]) == 0
        data = json.load(open(os.path.join(out, "evaluate.json")))
        assert 0 <= data["ensemble"]["precision"] <= 1
        assert "single_model" in data
        assert data["n_users_evaluated"] > 0

    def test_single_model_uses_configured_params(self, dataset, split, votes,
                                                 monkeypatch):
        root, _ = dataset
        conf = root / "conf_k3.txt"
        conf.write_text("ir.k=3\n")
        real, seen = base_rec.train_base, []

        def capture(algo, matrix, users, params):
            seen.append(params)
            return real(algo, matrix, users, params)

        monkeypatch.setattr(base_rec, "train_base", capture)
        assert cli.main(["evaluate", "--votes", votes, "--split", split,
                         "--config", str(conf), "--with-single-model",
                         "--out", str(root / "eval_k3")]) == 0
        assert seen == [base_rec.IRParams(k=3)]

    @pytest.mark.parametrize("single", [False, True])
    def test_short_candidate_lists(self, tmp_path, single):
        # 8 of 12 users rate all 6 items, so each keeps 2 unrated items for
        # N = 3; both systems recommend those 2, the held-out ones
        data = tmp_path / "ratings.csv"
        data.write_text("".join(f"{u},{i},{(u + i) % 5 + 1}\n"
                                for u in range(1, 13) for i in range(1, 7)
                                if u <= 8 or i <= 3))
        split, votes = str(tmp_path / "split.csv"), str(tmp_path / "votes.csv")
        assert cli.main(["ingest", "--data", str(data), "--format",
                         "generic-csv", "--out", split]) == 0
        assert cli.main(["train", "--split", split, "--T", "20", "--s", "4",
                         "--out", votes]) == 0
        out = str(tmp_path / "eval")
        assert cli.main(["evaluate", "--votes", votes, "--split", split,
                         "--N", "3", "--out", out]
                        + ["--with-single-model"] * single) == 0
        data = json.load(open(os.path.join(out, "evaluate.json")))
        assert data["n_users_evaluated"] == 12
        systems = ("ensemble", "single_model") if single else ("ensemble",)
        assert ("single_model" in data) == single
        for system in systems:
            # the 8 full raters hit 2 of 3 slots and recall both held-out items
            assert data[system]["precision"] >= 8 * (2 / 3) / 12
            assert data[system]["recall"] >= 8 / 12

    def test_baseline(self, dataset, split, votes):
        root, _ = dataset
        out = str(root / "bag")
        assert cli.main(["baseline", "--votes", votes, "--split", split,
                         "--alpha", "0.2", "--e", "0:2", "--out", out]) == 0
        with open(os.path.join(out, "baseline.csv")) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4

    def test_baseline_empty_e_rejected(self, dataset, split, votes):
        root, _ = dataset
        out = str(root / "bag_empty")
        assert cli.main(["baseline", "--votes", votes, "--split", split,
                         "--e", ",", "--out", out]) == 2
        assert not os.path.exists(out)


class TestOracleCommand:
    def test_soundness_pass(self, capsys):
        code = cli.main(["oracle", "--n", "6", "--m", "5", "--density", "0.7",
                         "--seed", "2", "--s", "3", "--e", "1", "--N", "3",
                         "--trials", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_no_attack_trials_refused(self, trials, capsys):
        code = cli.main(["oracle", "--n", "5", "--m", "4", "--s", "2",
                         "--N", "2", "--trials", trials])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: need at least one attack trial" in captured.err
        assert captured.out == ""  # not even the clean enumeration

    @pytest.mark.parametrize("n, m, seed, density, certified", [
        (5, 4, 1, 0.7, "{0: 1, 1: 1, 2: 1, 3: 1, 4: 1}\n"),
        (6, 6, 2, 0.5, "{0: 3, 1: 3, 2: 2, 3: 2, 4: 2, 5: 1}\n"),
        (8, 5, 3, 0.9, "{1: 1, 2: 1, 3: 2, 5: 2, 6: 1, 7: 1}\n"
                       "skipped users (empty target set): [0, 4]\n"),
        (7, 9, 0, 0.3, "{0: 4, 1: 2, 2: 2, 3: 1, 4: 3, 5: 4, 6: 2}\n")],
        ids=["defaults", "6x6", "dense", "sparse"])
    def test_probs_only(self, n, m, seed, density, certified, capsys):
        # without --data the instance is ratings.random_matrix; the whole
        # stdout is pinned, so a change of the certificates or of the
        # format shows
        code = cli.main(["oracle", "--n", str(n), "--m", str(m), "--s", "2",
                         "--seed", str(seed), "--density", str(density),
                         "--check", "probs"])
        assert code == 0
        assert capsys.readouterr().out == (
            f"enumerated {math.comb(n, 2)} subsets (n={n}, m={m}, s=2)\n"
            f"certified r per user: {certified}")

    @pytest.mark.parametrize("flag, value, error", [
        ("--N", "0", "N must be positive, got 0"),
        ("--e", "-1", "e must be >= 0, got -1")], ids=["N0", "e_negative"])
    def test_refusal_prints_nothing(self, flag, value, error, capsys):
        # the library refuses each after the enumeration, whose lines are
        # printed only once the certificates and the attack report are in
        assert cli.main(["oracle", "--n", "5", "--m", "4", "--s", "2",
                         flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"

    @pytest.mark.parametrize("density", ["1.5", "-0.1", "nan"])
    def test_density_out_of_range_refused(self, density, capsys):
        # the binomial mean of ratings.random_matrix must be a probability
        assert cli.main(["oracle", "--n", "6", "--m", "6",
                         "--density", density]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"error: density must lie in [0, 1], got {float(density)}\n"
                == captured.err)

    def test_users_without_targets_skipped(self, capsys):
        # density 1.0: every user rated every item, so no target set exists
        code = cli.main(["oracle", "--n", "5", "--m", "4", "--density", "1.0",
                         "--s", "2", "--check", "probs"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2] == "certified r per user: {}"
        assert out[-1] == "skipped users (empty target set): [0, 1, 2, 3, 4]"

    def test_two_level_exhaustive(self, capsys, monkeypatch):
        trained, batched = [], []
        real, real_batched = oracle.train_base, oracle.ir_votes_batched
        monkeypatch.setattr(oracle, "train_base",
                            lambda *args: trained.append(1) or real(*args))
        monkeypatch.setattr(oracle, "ir_votes_batched",
                            lambda x, users, *args:
                            batched.append(len(users))
                            or real_batched(x, users, *args))
        code = cli.main(["oracle", "--n", "5", "--m", "4", "--density", "0.8",
                         "--seed", "1", "--s", "2", "--e", "1", "--N", "2",
                         "--attack", "two-level-exhaustive"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trials: 16" in out and "skipped users" not in out
        # the clean C(5,2) models once in a batch, shared by the certificates
        # and the attack check, and once more one by one as the cross-check;
        # then the C(6,2) - C(5,2) holding the fake row per trial, batched
        assert len(trained) == 10
        assert sum(batched) == 10 + 16 * 5

    @pytest.mark.parametrize("e", ["0", "2"])
    def test_two_level_exhaustive_refuses_other_e(self, e, capsys):
        # its adversary appends one fake row, so certificates at any other e
        # would be compared against attacks of the wrong size
        argv = ["oracle", "--n", "6", "--m", "6", "--s", "3", "--N", "3",
                "--e", e, "--attack", "two-level-exhaustive"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"checks e = 1 only, got e = {e}" in captured.err
        # without the soundness check nothing is attacked
        assert cli.main(argv + ["--check", "probs"]) == 0

    def test_two_level_exhaustive_refuses_wide_matrix(self, capsys):
        # 2^21 fake rows are past desk scale: refused before the clean
        # enumeration prints anything
        code = cli.main(["oracle", "--n", "4", "--m", "21", "--s", "2",
                         "--N", "3", "--e", "1",
                         "--attack", "two-level-exhaustive"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exhaustive adversary is desk-scale only" in captured.err

    _GATE_10X10 = ["oracle", "--n", "10", "--m", "10", "--s", "5", "--N", "3",
                   "--e", "1", "--attack", "two-level-exhaustive"]

    @staticmethod
    def _assert_gate_passed(code, out, certified):
        # the whole stdout is pinned; some certificate is nonzero
        assert code == 0
        assert out == ("enumerated 252 subsets (n=10, m=10, s=5)\n"
                       f"certified r per user: {certified}\n"
                       "attack trials: 1024, violations: 0\n")
        assert re.search(r": [1-9]", certified), "vacuous certificates"

    def test_two_level_gate_10x10(self, capsys):
        # the widened soundness gate: 1,024 fake-user patterns, each poisoned
        # ensemble re-enumerated over C(11,5) subsets (210 new models each)
        code = cli.main(self._GATE_10X10)
        self._assert_gate_passed(
            code, capsys.readouterr().out,
            "{0: 1, 1: 1, 2: 2, 3: 1, 4: 2, 5: 1, 6: 1, 7: 1, 8: 1, 9: 1}")

    def test_two_level_gate_10x10_pruned(self, capsys, tmp_path):
        # the same gate at ir.k=3 < m, so the tables are pruned: a fault in
        # the pruning path (a self-similarity left in a row, say) makes the
        # batched kernel disagree with train_ir, which the oracle refuses;
        # at the default k=50 > m no row is pruned and such a fault hides
        conf = tmp_path / "k3.txt"
        conf.write_text("ir.k=3\n")
        code = cli.main(self._GATE_10X10 + ["--config", str(conf)])
        self._assert_gate_passed(
            code, capsys.readouterr().out,
            "{0: 1, 1: 2, 2: 2, 3: 1, 4: 2, 5: 1, 6: 1, 7: 1, 8: 1, 9: 1}")


class TestConfig:
    def test_file_values_and_flag_precedence(self, dataset, split, votes):
        root, _ = dataset
        conf = root / "conf.txt"
        conf.write_text("alpha=0.05\nN=5\n")
        out = str(root / "cert_conf")
        assert cli.main(["certify", "--votes", votes, "--split", split,
                         "--config", str(conf), "--alpha", "0.1", "--e", "0",
                         "--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["params"]["alpha"] == 0.1  # flag wins
        assert manifest["params"]["N"] == 5        # file fills the rest

    def test_unknown_key_rejected(self, tmp_path):
        # a key the program no longer reads is refused like any other
        conf = tmp_path / "bad.txt"
        for line in ("bogus=1", "bounds.upper_convention=textbook",
                     "mode=approx"):
            conf.write_text(line + "\n")
            with pytest.raises(ValueError, match="unknown key"):
                cli.parse_config_file(str(conf))

    @pytest.mark.parametrize("command,line,why", [
        ("train", "T=1e4", "T must be int, got '1e4'"),
        ("train", "algo=mf", "algo='mf' is not one of ('ir', 'bpr')"),
        ("ingest", "format=x", "format='x' is not one of"),
        ("certify", "alpha=0.1%", "alpha must be float"),
    ])
    def test_value_of_wrong_type_or_choice_refused(self, dataset, split, votes,
                                                   tmp_path, capsys, command,
                                                   line, why):
        # refused like the flag would be, before any input is read, naming
        # the file and the line
        _, data = dataset
        conf = tmp_path / "conf.txt"
        conf.write_text(f"# first line\n{line}\n")
        out = str(tmp_path / "out")
        inputs = {"ingest": ["--data", data],
                  "train": ["--split", split],
                  "certify": ["--votes", votes, "--split", split]}[command]
        assert cli.main([command, *inputs, "--config", str(conf),
                         "--out", out]) == 2
        captured = capsys.readouterr()
        assert f"error: {conf}: line 2: {why}" in captured.err
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["conf.txt"]

    def test_readme_block_is_the_defaults(self, tmp_path):
        # the README's "Configuration keys" block is a valid config file
        # that sets every key to its default
        readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "README.md"), encoding="utf-8").read()
        section = readme.split("## Configuration keys", 1)[1]
        block = section.split("```\n", 2)[1]
        conf = tmp_path / "conf.txt"
        conf.write_text(block)
        parsed = cli.parse_config_file(str(conf))
        assert ([(k, type(v), v) for k, v in parsed.items()]
                == [(k, type(v), v) for k, v in cli.DEFAULTS.items()])

    def test_defaults_pinned(self):
        # the ir.* and bpr.* entries come from the base-model dataclasses
        assert list(cli.DEFAULTS.items()) == [
            ("format", "movielens-100k-tab"), ("fraction", 0.75), ("seed", 0),
            ("algo", "ir"), ("s", 200), ("T", 10000), ("nprime", 1),
            ("N", 10), ("alpha", 0.001), ("e", "0:30"), ("threads", 1),
            ("chunk_size", 200), ("ir.k", 50), ("bpr.d", 16),
            ("bpr.epochs", 30), ("bpr.learn_rate", 0.05), ("bpr.reg", 0.01),
            ("bpr.neg_samples", 1)]
        assert [type(v) for v in cli.DEFAULTS.values()] == [
            str, float, int, str, int, int, int, int, float, str, int, int,
            int, int, int, float, float, int]
        assert cli._algo_params(cli.DEFAULTS, "ir") == base_rec.IRParams()
        assert cli._algo_params(cli.DEFAULTS, "bpr") == base_rec.BPRParams()

    def test_option_strings_pinned(self):
        # no subcommand gains or loses a flag
        parser = cli.build_parser()
        (subs,) = (a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {name: set(sp._option_string_actions) - {"-h", "--help"}
               for name, sp in subs.choices.items()}
        common = {"--config", "--log-level"}
        certification = common | {"--votes", "--split", "--out", "--target",
                                  "--alpha", "--N", "--e"}
        assert got == {
            "ingest": common | {"--data", "--out", "--format", "--fraction",
                                "--seed"},
            "train": common | {"--split", "--out", "--algo", "--T", "--s",
                               "--nprime", "--seed", "--threads",
                               "--chunk-size", "--resume", "--max-chunks"},
            "recommend": common | {"--votes", "--split", "--N", "--user"},
            "certify": certification | {"--baseline"},
            "evaluate": common | {"--votes", "--split", "--out", "--N",
                                  "--with-single-model"},
            "baseline": certification,
            "oracle": common | {"--data", "--format", "--n", "--m",
                                "--density", "--seed", "--algo", "--s",
                                "--nprime", "--N", "--e", "--check",
                                "--attack", "--trials"},
        }

    def test_malformed_line_rejected(self, tmp_path):
        conf = tmp_path / "bad.txt"
        conf.write_text("alpha 0.05\n")
        with pytest.raises(ValueError, match="key=value"):
            cli.parse_config_file(str(conf))

    def test_parse_e_list(self):
        assert cli.parse_e_list("0:4") == [0, 1, 2, 3, 4]
        assert cli.parse_e_list("7") == [7]
        assert cli.parse_e_list("3,1,2") == [1, 2, 3]
        assert cli.parse_e_list("0:2,5,8:9") == [0, 1, 2, 5, 8, 9]
        assert cli.parse_e_list("4,4,4") == [4]
        assert cli.parse_e_list(",") == []
