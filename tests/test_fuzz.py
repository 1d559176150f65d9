"""Bounded fuzz of the command line and the point-set parser.

`cli.main` runs in-process over generated `gen-set` and `experiment`
argv; every run must end in exit 0, 1 or 2, never in a traceback.
`parse_pointset` reads mutated set files and may raise only ValueError.
Moduli stay at p in {3, 5, 7} and l <= 2, random sets at 30 points and
trials at 2, so each example runs in milliseconds; product sets reach
d = 64, where |A|**d passes sys.maxsize.  About one draw in eight of an
integer argument is out of range instead (p >= 2**31, 2**61 - 1 among
them, l or d up to 10**9) or spelled with '_' or non-ASCII digits; each
of those is refused at once with exit 2.
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


_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def _spelled(ints):
    """The ints as decimal strings, about one in eight spelled instead with
    a '_' separator or with Arabic-Indic digits, both of which int() reads."""
    def odd(n):
        return st.sampled_from((f"{str(n)[:-1]}_{str(n)[-1]}", str(n).translate(_ARABIC_INDIC)))

    return ints.flatmap(lambda n: _rarely(st.just(str(n)), odd(n)))


_MODULI = st.builds(Modulus, st.sampled_from(PRIMES), st.integers(1, 2))
# past the 2**31 cap on q by p or by l alone; p = 2**61 - 1 is prime, so
# only the cap stops it before trial division
_P = _rarely(st.sampled_from(PRIMES), st.one_of(st.just(2**61 - 1), st.integers(2**31, 2**70)))
_L = _rarely(st.integers(1, 2), st.one_of(st.just(0), st.integers(20, 10**9)))
# d >= 20 passes the point cap for every q >= 3 by the exponent alone
_HUGE_D = st.integers(20, 10**9)


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
    argv = ["gen-set", "--p", draw(_spelled(_P)), "--l", draw(_spelled(_L)),
            "--d", draw(_spelled(_rarely(st.integers(1, 3), st.one_of(st.just(0), _HUGE_D))))]
    if draw(st.integers(0, 3)) == 0:
        argv.append("--full")
    else:
        argv += ["--size", draw(_spelled(_rarely(st.integers(0, 30), st.just(-1))))]
    return argv + ["--seed", draw(_spelled(SEEDS)),
                   "--trial", draw(_spelled(st.integers(-3, 2)))]


@st.composite
def _experiment_argv(draw):
    """argv with a {file} placeholder, and the text that file should hold."""
    kind = draw(st.sampled_from(("t2", "v2", "dotprod")))
    p, l = draw(_P), draw(_L)
    source = draw(_rarely(st.sampled_from(("random", "full", "product", "file")), st.just("bad")))
    top = 64 if source == "product" else 3
    d = draw(_rarely(st.integers(1, top) if kind == "dotprod" else st.just(2),
                     st.one_of(st.integers(0, 3), _HUGE_D)))
    text = ""
    if source == "random":
        spec = f"random:{draw(_spelled(_rarely(st.integers(0, 30), st.just(-1))))}"
    elif source in ("product", "file"):
        spec = f"{source}:{{file}}"
        # mostly the configured modulus, so the run gets past the q check
        valid = p in PRIMES and 1 <= l <= 2
        moduli = _rarely(st.just(Modulus(p, l)), _MODULI) if valid else _MODULI
        edits = _rarely(st.just(0), st.integers(1, 3))
        # a file of a huge d would take q**d draws to write; a file of d <= 3
        # is refused all the same, by the threshold or by the d mismatch
        text = draw(_set_file(1 if source == "product" else min(max(d, 1), 3), moduli, edits))
    else:
        spec = draw(st.sampled_from(("random:x", "product:", "nope:1")))
    argv = ["experiment", "--kind", kind, "--p", draw(_spelled(st.just(p))),
            "--l", draw(_spelled(st.just(l))), "--d", draw(_spelled(st.just(d))), "--set", spec,
            "--trials", draw(_spelled(_rarely(st.integers(1, 2), st.just(0)))),
            "--seed", draw(_spelled(SEEDS)), "--format", draw(st.sampled_from(("json", "csv")))]
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
