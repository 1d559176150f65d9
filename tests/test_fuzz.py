"""Bounded fuzz of the command line and the point-set parser.

`cli.main` runs in-process over generated `gen-set` and `experiment`
argv; every run must end in exit 0, 1 or 2, never in a traceback.
`parse_pointset` reads mutated set files and may raise only ValueError.
Moduli stay at p in {3, 5, 7} and l <= 2, random sets at 30 points and
trials at 2, so each example runs in milliseconds; product sets reach
d = 64, where |A|**d passes sys.maxsize.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from zqgeom import cli
from zqgeom.harness import format_pointset, parse_pointset, random_subset
from zqgeom.ring import Modulus

PRIMES = (3, 5, 7)
SEEDS = st.integers(-(2**70), 2**70)
# digits, separators, header keys, and tokens the strict parser refuses
_NOISE = "0123456789,=#-+ \n\tqdx_٣"


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            return exc.code


def _rarely(valid, invalid):
    """Values from valid, and from invalid about one draw in eight."""
    # 5, not an end of the range, which hypothesis favours
    return st.integers(0, 7).flatmap(lambda r: invalid if r == 5 else valid)


_MODULI = st.builds(Modulus, st.sampled_from(PRIMES), st.integers(1, 2))
_L = _rarely(st.integers(1, 2), st.just(0))


@st.composite
def _set_file(draw, d, moduli=_MODULI, edits=st.integers(0, 6)):
    """A well-formed set file of up to 30 points, then random edits."""
    m = draw(moduli)
    size = draw(st.integers(0, min(30, m.q**d)))
    text = format_pointset(random_subset(m, d, size, seed=draw(SEEDS)))
    for _ in range(draw(edits)):
        at = draw(st.integers(0, len(text)))
        chunk = draw(st.text(alphabet=_NOISE, min_size=1, max_size=8))
        edit = draw(st.sampled_from(("insert", "delete", "overwrite")))
        cut = 0 if edit == "insert" else len(chunk)
        text = text[:at] + ("" if edit == "delete" else chunk) + text[at + cut :]
    return text


@st.composite
def _gen_set_argv(draw):
    argv = ["gen-set", "--p", str(draw(st.sampled_from(PRIMES))), "--l", str(draw(_L)),
            "--d", str(draw(_rarely(st.integers(1, 3), st.just(0))))]
    if draw(st.integers(0, 3)) == 0:
        argv.append("--full")
    else:
        argv += ["--size", str(draw(_rarely(st.integers(0, 30), st.just(-1))))]
    return argv + ["--seed", str(draw(SEEDS)), "--trial", str(draw(st.integers(-3, 2)))]


@st.composite
def _experiment_argv(draw):
    """argv with a {file} placeholder, and the text that file should hold."""
    kind = draw(st.sampled_from(("t2", "v2", "dotprod")))
    p, l = draw(st.sampled_from(PRIMES)), draw(_L)
    source = draw(_rarely(st.sampled_from(("random", "full", "product", "file")), st.just("bad")))
    top = 64 if source == "product" else 3
    d = draw(_rarely(st.integers(1, top) if kind == "dotprod" else st.just(2), st.integers(0, 3)))
    text = ""
    if source == "random":
        spec = f"random:{draw(_rarely(st.integers(0, 30), st.just(-1)))}"
    elif source in ("product", "file"):
        spec = f"{source}:{{file}}"
        # mostly the configured modulus, so the run gets past the q check
        moduli = _rarely(st.just(Modulus(p, l)), _MODULI) if l else _MODULI
        edits = _rarely(st.just(0), st.integers(1, 3))
        text = draw(_set_file(1 if source == "product" else max(d, 1), moduli, edits))
    else:
        spec = draw(st.sampled_from(("random:x", "product:", "nope:1")))
    argv = ["experiment", "--kind", kind, "--p", str(p), "--l", str(l), "--d", str(d),
            "--set", spec, "--trials", str(draw(_rarely(st.integers(1, 2), st.just(0)))),
            "--seed", str(draw(SEEDS)), "--format", draw(st.sampled_from(("json", "csv")))]
    return argv, text


@settings(max_examples=60)
@given(_gen_set_argv())
def test_gen_set_fuzz_exits_cleanly(argv):
    assert _run(argv) in (0, 1, 2)


@settings(max_examples=150)
@given(_experiment_argv())
def test_experiment_fuzz_exits_cleanly(tmp_path_factory, case):
    argv, text = case
    path = tmp_path_factory.getbasetemp() / "fuzz-set.txt"
    path.write_text(text)
    assert _run([a.format(file=path) for a in argv]) in (0, 1, 2)


@settings(max_examples=60)
@given(_MODULI, st.integers(1, 64), st.data())
def test_dotprod_product_fuzz_exits_cleanly(tmp_path_factory, m, d, data):
    # well-formed product runs: |A|**d passes sys.maxsize for most (|A|, d)
    path = tmp_path_factory.getbasetemp() / "fuzz-base.txt"
    path.write_text(data.draw(_set_file(1, st.just(m), st.just(0))))
    argv = ["experiment", "--kind", "dotprod", "--p", str(m.p), "--l", str(m.l),
            "--d", str(d), "--set", f"product:{path}",
            "--trials", str(data.draw(st.integers(1, 2))), "--seed", str(data.draw(SEEDS)),
            "--format", data.draw(st.sampled_from(("json", "csv")))]
    assert _run(argv) in (0, 1, 2)


@settings(max_examples=300)
@given(st.one_of(_set_file(1), _set_file(2), _set_file(3)))
def test_parse_pointset_fuzz_raises_only_value_error(text):
    try:
        ps = parse_pointset(text)
    except ValueError:
        return
    assert all(len(pt) == ps.d and all(0 <= c < ps.m.q for c in pt) for pt in ps.points)
