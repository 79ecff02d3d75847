"""Property tests: hostile input files.

Each test mutates one small valid file (a center or ranker checkpoint, a
config file, a reaction file) by flipping, deleting or duplicating a byte
or a line, truncating it, writing a huge, negative or non-integer size, a
duplicate tensor name or non-ASCII text. Every reader of the file, and the
CLI command that reads it, must then succeed or raise ``ValueError``; the
CLI must end with status 0 or 1, or with one line (a ``SystemExit`` text,
which the interpreter prints to stderr with status 1). A file that differs
from the original only by a leading UTF-8 byte-order mark reads as the
original does. The sizes include network depths, which
``rxnpred.wln.MAX_DEPTH`` bounds, so every mutation scores in bounded time.
"""

import codecs
import contextlib
import io
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rxnpred import datagen
from rxnpred.candgen import enumerate_candidates
from rxnpred.center import CenterModel, top_k_pairs
from rxnpred.chemgraph import parse_smiles
from rxnpred.cli import main
from rxnpred.diffengine import ParamStore
from rxnpred.pipeline import RunConfig, load_dataset
from rxnpred.ranker import RankerModel, rank_candidates

REACTANTS = "[CH3:1][C:2](=[O:3])[Cl:4].[NH3:5]"
DATA = ("\n".join(datagen.toy_reaction_lines(4, seed=0) + ["# toy"]) + "\n").encode()
CONFIG = ("# run settings\nk=4\nmax_changes=2\nhidden=8\ndepth=2\nepochs=2\nlr=0.01\n"
          "split=0.5,0.25,0.25\n")
NON_ASCII = ("\u00e9", "\u2028", "\x85", "\ufeff", "\u0663", "\u00a0")
SIZES = ("0", "-3", "2.5", "x", "1e3", "9" * 19, "1" + "0" * 40)
HYPOTHESIS = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                      suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    CenterModel.create("local", hidden=2, depth=1, seed=0).save(root / "center.ckpt")
    RankerModel.create("wldn", hidden=2, depth=1, seed=0).save(root / "ranker.ckpt")
    return root


def mutations(original: bytes, sizes: str):
    """One mutation of ``original``: the byte and line edits, or a digit
    run on a line matching ``sizes`` set to a huge, negative or non-integer
    size."""
    lines = original.split(b"\n")
    size_spots = [(i, m.span()) for i, line in enumerate(lines) if re.search(sizes, line.decode())
                  for m in re.finditer(rb"\d+", line)]

    def at_byte(edit):
        return st.integers(0, len(original) - 1).map(lambda i: edit(original, i))

    def at_line(edit):
        return st.integers(0, len(lines) - 1).map(lambda i: b"\n".join(edit(lines, i)))

    def resize(spot, size):
        i, (start, end) = spot
        return b"\n".join(lines[:i] + [lines[i][:start] + size.encode() + lines[i][end:]]
                          + lines[i + 1:])

    return st.one_of(
        st.tuples(st.integers(0, len(original) - 1), st.integers(0, 7)).map(
            lambda p: original[:p[0]] + bytes([original[p[0]] ^ 1 << p[1]]) + original[p[0] + 1:]),
        at_byte(lambda d, i: d[:i] + d[i + 1:]),
        at_byte(lambda d, i: d[:i + 1] + d[i:]),
        at_byte(lambda d, i: d[:i]),
        st.tuples(st.integers(0, len(original)), st.sampled_from(NON_ASCII)).map(
            lambda p: original[:p[0]] + p[1].encode() + original[p[0]:]),
        at_line(lambda ls, i: ls[:i] + ls[i + 1:]),
        at_line(lambda ls, i: ls[:i + 1] + ls[i:]),
        st.tuples(st.sampled_from(size_spots), st.sampled_from(SIZES)).map(lambda p: resize(*p)),
    )


def checkpoint_mutations(path):
    """:func:`mutations` of a checkpoint, plus its first tensor header
    renamed to each later tensor's name. Sizes: tensor headers, the hidden
    and input widths and the network depths."""
    original = path.read_bytes()
    lines = original.decode().split("\n")
    first, *later = [i for i, line in enumerate(lines) if re.fullmatch(r"\S+ \d+ \d+", line)]
    _, rows, cols = lines[first].split()
    renamed = ["\n".join(lines[:first] + [f"{lines[i].split()[0]} {rows} {cols}"]
                         + lines[first + 1:]).encode() for i in later]
    return st.one_of(mutations(original, r"^\S+ \d+ \d+$|hidden=|in_dim=|depth="),
                     st.sampled_from(renamed))


def assert_value_error_or_success(call):
    try:
        call()
    except ValueError:
        pass


def is_original(data, original):
    return data.removeprefix(codecs.BOM_UTF8) == original


def assert_cli_contract(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            status = main(argv)
        except SystemExit as e:
            assert isinstance(e.code, str) and e.code and "\n" not in e.code, repr(e.code)
            return
    assert status in (0, 1)


def score_center(path):
    model = CenterModel.from_store(ParamStore.load(path))
    top_k_pairs(model.score_matrix(parse_smiles(REACTANTS)), 6)


def score_ranker(path):
    model = RankerModel.from_store(ParamStore.load(path))
    g = parse_smiles(REACTANTS)
    rank_candidates(g, enumerate_candidates(g, [(1, 4), (3, 4), (0, 1)], 2).candidates, model)


@pytest.mark.parametrize("kind", ["center", "ranker"])
def test_mutated_checkpoint_loads_scores_or_raises_value_error(files, kind):
    path = files / f"{kind}.ckpt"
    bad = files / f"mutated-{kind}.ckpt"
    other = files / ("ranker.ckpt" if kind == "center" else "center.ckpt")
    score = score_center if kind == "center" else score_ranker

    @HYPOTHESIS
    @given(checkpoint_mutations(path))
    def check(data):
        bad.write_bytes(data)
        assert_value_error_or_success(lambda: score(bad))
        assert_cli_contract(["predict", REACTANTS, "--model", str(bad), "--model", str(other)])

    check()


@HYPOTHESIS
@given(data=mutations(CONFIG.encode(), r"^\w+=\d"))
@example(data=codecs.BOM_UTF8 + CONFIG.encode())
def test_mutated_config_parses_or_raises_value_error(files, data):
    bad = files / "mutated.cfg"
    bad.write_bytes(data)
    if is_original(data, CONFIG.encode()):
        assert RunConfig.from_file(bad) == RunConfig(k=4, max_changes=2, hidden=8, depth=2,
                                                     epochs=2, lr=0.01, split=(0.5, 0.25, 0.25))
    assert_value_error_or_success(lambda: RunConfig.from_file(bad))
    assert_cli_contract(["predict", REACTANTS, "--config", str(bad), "--model",
                         str(files / "center.ckpt"), "--model", str(files / "ranker.ckpt")])


@HYPOTHESIS
@given(data=mutations(DATA, r"\d"))
@example(data=codecs.BOM_UTF8 + DATA)
def test_mutated_reaction_file_loads_or_raises_value_error(files, data):
    bad = files / "mutated.txt"
    bad.write_bytes(data)
    if is_original(data, DATA):
        assert [r.raw for r in load_dataset(bad)] == DATA.decode().splitlines()[:-1]
    assert_value_error_or_success(lambda: load_dataset(bad))
    assert_cli_contract(["evaluate", "--data", str(bad), "--model", str(files / "center.ckpt"),
                         "--model", str(files / "ranker.ckpt")])
