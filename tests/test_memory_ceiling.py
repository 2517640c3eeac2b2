"""Memory ceilings near the 2^24 table cap. Each case runs in a child
process with one OpenBLAS thread whose address space alone is capped at
768 MiB: parsing an n = 22 or n = 24 function and `lfqec bent` on an
n = 22 bent function must finish inside it, with the exact answer, and
`lfqec zset` with 2^21 shifts to list must be refused with exit 3. So must
`lfqec mds --m 9`, whose 2^16 basis functions of up to 172 ANF terms each
exceed the listing budget, and `mds --m 12`, whose 2^22 support points at
the n = 24 table cap are counted, not listed, while 2048 basis functions at
n = 12 and `mds --m 6` and `--m 7` must finish; under 256 MiB,
`mds --m 30000000` must be refused with exit 3 within a second. Under 384 MiB,
`lfqec verify` of a shared-quadratic code with 4096^2 basis pairs must be
refused with exit 3; the pairs are counted from the basis list, so it is
refused before any table is built. An in-cap shared-quadratic code at
n = 16 and n = 20 must get its verdict under 384 and 256 MiB, since no
basis function is expanded to a table, and a Gram sweep over 48 cubic
functions at n = 20 must be refused with exit 3 before a state is built.
Under 256 MiB, `lfqec zset --format json` must list 2^17 shifts of length
18, `lfqec coset-code` must search with 32 shifts of length 16, and the
closed form must walk the 4.7 M weight-3 labels of a p = 13, n = 3 code,
and `lfqec graph-code` must search the cycle C20 for coverage with budget 4.
A coverage budget above n stops at n, so C5 with d = 20 gets its witness
within a second, and 3^14 role tuples on one support are refused with
exit 3 within a second, before any support is walked. So are 4096 classes
on C12, whose 4096^2 pairs exceed the listing budget (2048 classes are
checked), and 2000 shifts of length 18 under 256 MiB for a cubic or a
table-held quadratic, whose 2000 tables of 2^18 entries exceed the table
cap; an ANF-held quadratic builds no such table and gets its code under
256 MiB and 192 MiB, as does the cycle C22 with 8 shifts under 384 MiB, whose
C10 twin matches the per-label reference. In this process, the shift search
on 2048 cubic shifts and the closed form on 2048 shared-quadratic functions
each trace under 32 MiB: neither holds a K x K key table. Under 256 MiB, `lfqec bent` on a
p = 3, n = 15 ANF, and `lfqec projector` on it with a 15 x 30 matrix, must
be refused with exit 2 within 5 s, before the ANF is expanded. Under
384 MiB, `lfqec apc`, `lfqec bent` and `lfqec zset` on a random p = 2,
n = 22 truth table must exit 0 and print what they print uncapped; under
256 MiB they must exit 0 or 3, never 1. On a random p = 2 table at the
n = 24 cap, each holding one int64 table, the same three must exit 0 with
their pinned answers under 512 MiB, and under 384 MiB `bent` and `zset`
must run out of memory and exit 3 with a one-line capacity message:
running out of memory is never a refutation. At p = 2, n = 24, over the
state cap, every builder's shared-quadratic output checked with --verify
(`apc`, `coset-code`, `graph-code`, `matrix-check --build`, and `verify` of
a K = 2 code) must get its verdict, exit 0 or 1, within 5 s under 512 MiB."""
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

resource = pytest.importorskip("resource")

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
CEILING = 768 << 20


def run_child(
    code: str, ceiling: int = CEILING, timeout: float = 120
) -> subprocess.CompletedProcess:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling)),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def run_capped(code: str) -> str:
    proc = run_child(code)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def cli_code(*argv) -> str:
    return f"from lfqec.cli import main\nraise SystemExit(main({list(argv)!r}))"


def pairs_anf(n: int) -> str:
    """x1*x2 + x3*x4 + ... + x(n-1)*xn, bent for even n."""
    return " + ".join(f"x{i}*x{i + 1}" for i in range(1, n, 2))


@pytest.mark.parametrize("n", [22, 24])
def test_parse_anf_fits_the_ceiling(n):
    out = run_capped(
        f"from lfqec import parse_anf\n"
        f"print(int(parse_anf({pairs_anf(n)!r}, 2, {n}).table.sum()))"
    )
    assert int(out) == 2 ** (n - 1) - 2 ** (n // 2 - 1)


def test_bent_command_fits_the_ceiling(tmp_path):
    # is_bent plus the support size, through the command line
    fn = tmp_path / "bent22.fn"
    fn.write_text(f"2 22\nanf: {pairs_anf(22)}\n")
    out = run_capped(cli_code("bent", str(fn)))
    assert out == f"bent: true\nsupport size: {2**21 - 2**10}"


@pytest.fixture(scope="module")
def random22(tmp_path_factory) -> pathlib.Path:
    """A seeded random p = 2, n = 22 table, written as one compact digit string."""
    path = tmp_path_factory.mktemp("random22") / "random22.fn"
    digits = np.random.default_rng(22).integers(0, 2, 2**22).astype(np.uint8) + ord("0")
    path.write_text("2 22\ntt: " + digits.tobytes().decode() + "\n")
    return path


@pytest.mark.parametrize("command", ["apc", "bent", "zset"])
def test_random_table_commands_fit_384_mib(random22, command):
    # the search holds no shift table for apc's one zero shift, and the
    # transform runs in place on the one array its caller builds: each fits 192 MiB
    uncapped = run_child(cli_code(command, str(random22)), ceiling=resource.RLIM_INFINITY)
    assert uncapped.returncode == 0, uncapped.stderr[-2000:]
    proc = run_child(cli_code(command, str(random22)), ceiling=384 << 20)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (proc.stdout, proc.stderr) == (uncapped.stdout, "")


def table_answers(n: int, support: int) -> dict:
    """The stdout of apc, bent and zset on the seeded random table at n."""
    return {"apc": f"distance: 1\nwitness: a=1{'0' * (n - 1)} b={'0' * n}\n",
            "bent": f"bent: false\nsupport size: {support}\n", "zset": "size: 0\n"}


@pytest.mark.parametrize("command", ["apc", "bent", "zset"])
def test_random_table_commands_never_read_out_of_memory_as_a_refutation(random22, command):
    # at 256 MiB each either finishes (it does here) or runs out of memory
    proc = run_child(cli_code(command, str(random22)), ceiling=256 << 20)
    assert proc.returncode in (0, 3), proc.stderr[-2000:]
    if proc.returncode == 3:
        assert (proc.stdout, proc.stderr) == ("", f"capacity: {command} ran out of memory\n")
    else:
        assert (proc.stdout, proc.stderr) == (table_answers(22, 2098542)[command], "")


@pytest.fixture(scope="module")
def random24(tmp_path_factory) -> pathlib.Path:
    """A seeded random p = 2, n = 24 table, the table cap, as one compact digit string."""
    path = tmp_path_factory.mktemp("random24") / "random24.fn"
    digits = np.random.default_rng(24).integers(0, 2, 2**24).astype(np.uint8) + ord("0")
    path.write_text("2 24\ntt: " + digits.tobytes().decode() + "\n")
    return path


@pytest.mark.parametrize("command", ["apc", "bent", "zset"])
def test_table_cap_commands_fit_512_mib(random24, command):
    # one int64 table, the reader's one byte a digit and one int64 work array:
    # each of apc, bent and zset fits 432 MiB
    proc = run_child(cli_code(command, str(random24)), ceiling=512 << 20)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (proc.stdout, proc.stderr) == (table_answers(24, 8388819)[command], "")


@pytest.mark.parametrize("command", ["bent", "zset"])
def test_table_cap_commands_out_of_memory_exit_3(random24, command):
    proc = run_child(cli_code(command, str(random24)), ceiling=384 << 20)
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert (proc.stdout, proc.stderr) == ("", f"capacity: {command} ran out of memory\n")


@pytest.mark.parametrize("command, err", [
    ("bent", "bent detection is defined for p = 2"),
    ("projector", "the projector construction is defined for p = 2"),
], ids=["bent", "projector"])
def test_domain_refusal_comes_before_the_expansion(tmp_path, command, err):
    # the 3^15 int64 table alone takes 115 MB, and the expansion's grids more
    fn, mat = tmp_path / "cycle15.fn", tmp_path / "a.mat"
    fn.write_text("3 15\nanf: " + " + ".join(f"x{i + 1}*x{(i + 1) % 15 + 1}" for i in range(15)))
    mat.write_text("2 15\n" + "".join(format(1 << (29 - i), "030b") + "\n" for i in range(15)))
    argv = [command, str(fn)] + [str(mat)] * (command == "projector")
    t0 = time.perf_counter()
    proc = run_child(cli_code(*argv), ceiling=256 << 20)
    assert time.perf_counter() - t0 < 5
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr == f"error: {err}\n"
    assert proc.stdout == ""


def test_zset_listing_over_budget_is_refused(tmp_path):
    # x1 has the 2^21 shifts with a_1 = 1; listing them needs about 1 GB
    fn = tmp_path / "half22.fn"
    fn.write_text("2 22\nanf: x1\n")
    proc = run_child(cli_code("zset", str(fn)))
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stderr.startswith("capacity: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_zset_json_listing_fits_256_mib(tmp_path):
    # x1 has the 2^17 shifts with a_1 = 1; the JSON text is never held whole
    fn = tmp_path / "half18.fn"
    fn.write_text("2 18\nanf: x1\n")
    proc = run_child(cli_code("zset", str(fn), "--format", "json"), ceiling=256 << 20)
    assert proc.returncode == 0, proc.stderr[-2000:]
    data = json.loads(proc.stdout)
    assert data["size"] == 2**17
    assert data["shifts"] == [[1] + [i >> (16 - j) & 1 for j in range(17)] for i in range(2**17)]


def test_coset_search_fits_256_mib(tmp_path):
    # 32 shifts have about 500 distinct differences; one table of 2^16 entries
    # per difference would not fit, the K tables beta.x do. Two shifts differ
    # by e_1, so the label (0, e_1) has a nonvanishing sum and d = 1.
    n = 16
    fn = tmp_path / "cycle16.fn"
    cycle = " + ".join(f"x{i + 1}*x{(i + 1) % n + 1}" for i in range(n))
    fn.write_text(f"2 {n}\nanf: {cycle}\n")
    gen = np.random.default_rng(16)
    betas = {(0,) * n, (1,) + (0,) * (n - 1)}
    while len(betas) < 32:
        betas.add(tuple(int(v) for v in gen.integers(0, 2, n)))
    arg = ",".join("".join(map(str, b)) for b in sorted(betas))
    proc = run_child(cli_code("coset-code", str(fn), "--betas", arg), ceiling=256 << 20, timeout=30)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith(f"code: (({n}, 32, 1))_p=2\n")


SHIFTS_2000 = ",".join(format(j, "018b") for j in range(2000))


def test_coset_shift_tables_over_the_cap_are_refused(tmp_path):
    # 2000 tables of 2^18 int64 entries would take about 4.2 GB: the walk's
    # tables beta.x for a cubic, the coset basis for a table-held x1*x2
    fn = tmp_path / "f.fn"
    for body in ["anf: x1*x2*x3", "tt: " + "0" * (3 << 16) + "1" * (1 << 16)]:
        fn.write_text(f"2 18\n{body}\n")
        t0 = time.perf_counter()
        proc = run_child(cli_code("coset-code", str(fn), "--betas", SHIFTS_2000), ceiling=256 << 20)
        assert time.perf_counter() - t0 < 1, body[:3]
        assert proc.returncode == 3, proc.stderr[-2000:]
        assert proc.stderr == (
            "capacity: K p^n = 524288000 shift table entries exceed the cap 16777216\n"
        )
        assert proc.stdout == ""


def coset_quadratic_with_2000_shifts(tmp_path, ceiling_mib: int) -> None:
    # an ANF-held quadratic builds no table of 2^18 entries, so the table cap
    # does not apply; the difference set is formed a row chunk at a time
    fn = tmp_path / "x1x2.fn"
    fn.write_text("2 18\nanf: x1*x2\n")
    proc = run_child(cli_code("coset-code", str(fn), "--betas", SHIFTS_2000),
                     ceiling=ceiling_mib << 20)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("code: ((18, 2000, 1))_p=2\n")


def test_coset_quadratic_with_2000_shifts_fits_256_mib(tmp_path):
    coset_quadratic_with_2000_shifts(tmp_path, 256)


def test_coset_quadratic_with_2000_shifts_fits_192_mib(tmp_path):
    # the 2000^2 int64 difference keys held at once ran out of memory here
    coset_quadratic_with_2000_shifts(tmp_path, 192)


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of one call of fn in this process."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_shift_search_on_2048_cubic_shifts_traces_under_32_mib():
    # the 2048^2 difference keys alone took 32 MiB, and np.unique four times
    # that; the chunked set and the 2048 int8 tables beta.x of 2^11 entries fit
    from lfqec import parse_anf
    from lfqec.logic_fn import _first_nonvanishing

    f = parse_anf("x1*x2*x3 + x4*x5 + x6", 2, 11)
    betas = [tuple(int(c) for c in format(j, "011b")) for j in range(2048)]
    assert _first_nonvanishing(f, betas)[0] == 1
    assert traced_peak(lambda: _first_nonvanishing(f, betas)) < 32 << 20


def cycle_coset(tmp_path, n: int, seed: int) -> tuple:
    """The ANF of the cycle C_n over F_2, 8 distinct random shifts, and the
    coset-code command on the two."""
    anf = " + ".join(f"x{i + 1}*x{(i + 1) % n + 1}" for i in range(n))
    fn = tmp_path / f"cycle{n}.fn"
    fn.write_text(f"2 {n}\nanf: {anf}\n")
    gen = np.random.default_rng(seed)
    betas = set()
    while len(betas) < 8:
        betas.add(tuple(int(v) for v in gen.integers(0, 2, n)))
    betas = sorted(betas)
    arg = ",".join("".join(map(str, b)) for b in betas)
    return anf, betas, cli_code("coset-code", str(fn), "--betas", arg)


def test_coset_code_on_c22_with_8_shifts_fits_384_mib(tmp_path):
    # 8 p^n = 2^25 entries: over the table cap, but an ANF-held quadratic
    # builds no table, so the code gets its distance
    _, _, code = cycle_coset(tmp_path, 22, 22)
    proc = run_child(code, ceiling=384 << 20)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("code: ((22, 8, 3))_p=2\n")


@pytest.mark.parametrize("seed", [4, 5])
def test_coset_code_on_c10_with_8_shifts_matches_the_reference(tmp_path, seed):
    # the C22 construction at n = 10; these seeds put the first failing label
    # at weight 1 and 2, early enough for the reference's sum per shift pair
    from conftest import reference_coset_distance
    from lfqec import parse_anf
    from lfqec.logic_fn import _first_nonvanishing

    anf, betas, code = cycle_coset(tmp_path, 10, seed)
    f = parse_anf(anf, 2, 10)
    w, (a, b) = reference_coset_distance(f, betas)
    assert (w, _first_nonvanishing(f, betas)) == (seed - 3, (w, a, b))
    proc = run_child(code, ceiling=384 << 20)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith(f"code: ((10, 8, {w}))_p=2\n")


def code_file(K: int, n: int) -> str:
    """A code description whose basis shares the quadratic part x1*x2 + x2*x3
    and takes the binary expansions of 0..K-1 as linear parts."""
    basis = [" + ".join(["x1*x2 + x2*x3"] + [f"x{k + 1}" for k in range(n) if j >> k & 1])
             for j in range(K)]
    return json.dumps({"p": 2, "n": n, "claimed_d": 2, "basis": basis})


def test_closed_form_pair_table_fits_the_ceiling(tmp_path):
    # the difference set a row chunk at a time; the (K, K, n) difference tensor needed 384 MiB
    path = tmp_path / "k2048.json"
    path.write_text(code_file(2048, 12))
    proc = run_child(cli_code("verify", str(path)))
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[:2] == [
        "verdict: fail (max weight 1)",
        "failure: a=000000000000 b=100000000000 offdiag_nonzero at (0, 1)",
    ]
    # of the 36 weight-1 labels, only the three on x12, which no linear part uses, pass
    assert len(lines) == 1 + 33


def test_closed_form_on_2048_functions_traces_under_32_mib():
    # the (K, K) key table of the closed form took 32 MiB, and np.unique four times that
    from lfqec import LogicFunction, kl_verify
    from lfqec._textfile import read_code_file

    p, n, _, _, terms = read_code_file(code_file(2048, 12))
    basis = [LogicFunction(p, n, anf=t) for t in terms]
    assert kl_verify(basis, 1).verdict == "fail"
    assert traced_peak(lambda: kl_verify(basis, 1)) < 32 << 20


@pytest.mark.parametrize("K, n, ceiling_mib", [(512, 20, 256), (2048, 16, 384)])
def test_shared_quadratic_verify_builds_no_table(tmp_path, K, n, ceiling_mib):
    # K tables of 2^n entries would take 4 GiB and 512 MiB; the closed form reads the ANFs
    path = tmp_path / "code.json"
    path.write_text(code_file(K, n))
    proc = run_child(cli_code("verify", str(path)), ceiling=ceiling_mib << 20)
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["verdict: fail (max weight 1)",
                         f"failure: a={'0' * n} b=1{'0' * (n - 1)} offdiag_nonzero at (0, 1)"]
    # each of the three weight-1 labels on the log2(K) variables the linear parts use fails
    assert len(lines) == 1 + 3 * (K.bit_length() - 1)


def test_closed_form_walk_fits_256_mib_at_p13(tmp_path):
    # K = 2 at p = 13, n = 3: 168^3 = 4.7 M weight-3 labels on one support,
    # whose patterns held at once take hundreds of MB; the walk holds chunks
    path = tmp_path / "p13.json"
    basis = ["x1*x2 + x2*x3", "x1*x2 + x2*x3 + x1"]
    path.write_text(json.dumps({"p": 13, "n": 3, "claimed_d": 2, "basis": basis}))
    proc = run_child(cli_code("verify", str(path), "--max-weight", "3"), ceiling=256 << 20)
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["verdict: fail (max weight 3)",
                         "failure: a=000 b=100 offdiag_nonzero at (1, 0)"]
    # u = b - S a is +-e_1 for two b per a, and 0 for one b per a with a_1 != 0
    assert len(lines) == 1 + 2 * 13**3 + 12 * 13**2


def test_gram_sweep_over_the_table_cap_is_refused(tmp_path):
    # 48 cubic functions at n = 20 fit every cap, but K states of p^(n+1)
    # entries, their float stack and a ket buffer would take 2.4 GB
    basis = [" + ".join(["x1*x2*x3"] + [f"x{k + 1}" for k in range(20) if j >> k & 1])
             for j in range(48)]
    path = tmp_path / "cubic48.json"
    path.write_text(json.dumps({"p": 2, "n": 20, "claimed_d": 2, "basis": basis}))
    proc = run_child(cli_code("verify", str(path)))
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stderr == (
        "capacity: K p^(n+1) = 100663296 Gram sweep entries exceed the cap 16777216\n"
    )
    assert proc.stdout == ""


def test_closed_form_pair_table_over_budget_is_refused(tmp_path):
    # the pairs are counted from the length of the basis list, before one
    # string is parsed or one of the 4096 tables (256 MiB) is built
    path = tmp_path / "k4096.json"
    path.write_text(code_file(4096, 13))
    proc = run_child(cli_code("verify", str(path)), ceiling=384 << 20)
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stderr == "capacity: K^2 = 16777216 basis pairs exceed the listing budget 4194304\n"
    assert proc.stdout == ""


def builder_inputs(tmp_path) -> dict:
    """One command per builder at p = 2, n = 24, the top of its own caps: an
    ANF quadratic, the cycle C24 with one class, a 25 x 25 matrix whose class
    column meets every qudit of C24, and a K = 2 shared-quadratic code."""
    n, zero = 24, "0" * 24
    quad = pairs_anf(n)
    (tmp_path / "q.fn").write_text(f"2 {n}\nanf: {quad}\n")
    (tmp_path / "c.g").write_text(f"2 {n}\n" + "".join(f"{i} {i % n + 1}\n" for i in range(1, n + 1)))
    (tmp_path / "c.cl").write_text(zero + "\n")
    # index 0 is the class column; qudit i (1..n) meets it and its two neighbours on C24
    rows = [[0] + [1] * n] + [[1] + [int(abs(i - j) in (1, n - 1)) for j in range(1, n + 1)]
                              for i in range(1, n + 1)]
    (tmp_path / "m").write_text(f"2 {n + 1}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    code = {"p": 2, "n": n, "claimed_d": 2, "basis": [quad, quad + " + x1"]}
    (tmp_path / "k2.json").write_text(json.dumps(code))
    files = {name: str(tmp_path / name) for name in ("q.fn", "c.g", "c.cl", "m", "k2.json")}
    return {
        "apc": ["apc", files["q.fn"], "--verify"],
        "coset-code": ["coset-code", files["q.fn"], "--betas", f"{zero},{'1' * n}", "--verify"],
        "graph-code": ["graph-code", files["c.g"], "--classes", files["c.cl"], "--d", "3", "--verify"],
        "matrix-check": ["matrix-check", files["m"], "--k", "1", "--d", "2", "--build", "--verify"],
        "verify": ["verify", files["k2.json"]],
    }


@pytest.mark.parametrize("command", ["apc", "coset-code", "graph-code", "matrix-check", "verify"])
def test_builder_output_at_the_table_cap_gets_a_verdict(tmp_path, command):
    # a shared-quadratic basis takes the closed form, which builds no state,
    # so the state cap 2^20 does not stand between a claim and its check
    t0 = time.perf_counter()
    proc = run_child(cli_code(*builder_inputs(tmp_path)[command]), ceiling=512 << 20)
    assert time.perf_counter() - t0 < 5
    assert proc.returncode in (0, 1), proc.stderr[-2000:]
    assert proc.stderr == ""
    verdicts = ("verification: ", "verdict: ", "oracle distance: ")
    assert any(line.startswith(verdicts) for line in proc.stdout.splitlines()), proc.stdout[-2000:]


def test_mds_extraction_fits_the_ceiling_up_to_the_listing_budget():
    # the basis is M functions of at most 1 + n + n(n-1)/2 ANF terms: m = 7
    # holds 4096 x 106, m = 9 would hold 65536 x 172, over the budget
    for m in (6, 7):
        proc = run_child(cli_code("mds", "--m", str(m)))
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.startswith(
            f"code: (({2 * m}, {4 ** (m - 1)}, 2))_p=2\nprovenance: mds-family\n")
    proc = run_child(cli_code("mds", "--m", "9"))
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stderr == "capacity: 65536 x 172 basis ANF terms exceed the listing budget 4194304\n"
    assert proc.stdout == ""


def test_mds_support_is_counted_before_it_is_listed():
    # m = 12 is n = 24, the table cap: its 2^22 support points are counted on
    # the table and refused, never listed as 24-tuples
    proc = run_child(cli_code("mds", "--m", "12"))
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stderr == (
        "capacity: 4194304 x 301 basis ANF terms exceed the listing budget 4194304\n"
    )
    assert proc.stdout == ""


def test_mds_over_the_table_cap_is_refused_before_its_text_is_built():
    # the product's text for m = 3e7 takes gigabytes; the cap on n = 2m comes first
    t0 = time.perf_counter()
    proc = run_child(cli_code("mds", "--m", "30000000"), ceiling=256 << 20)
    assert time.perf_counter() - t0 < 1
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stderr == "capacity: p^n with n = 60000000 exceeds cap 16777216\n"
    assert proc.stdout == ""


def cycle_graph_code(tmp_path, n: int, d: int, ceiling: int = CEILING) -> subprocess.CompletedProcess:
    """`lfqec graph-code` on the cycle Cn with the classes {} and V."""
    graph, classes = tmp_path / f"c{n}.g", tmp_path / f"c{n}.classes"
    graph.write_text(f"2 {n}\n" + "".join(f"{i} {i % n + 1}\n" for i in range(1, n + 1)))
    classes.write_text("0" * n + "\n" + "1" * n + "\n")
    return run_child(cli_code("graph-code", str(graph), "--classes", str(classes), "--d", str(d)),
                     ceiling=ceiling)


def test_graph_code_coverage_fits_256_mib(tmp_path):
    # C20 with budget 4: 6,196 supports, 424,996 role tuples
    proc = cycle_graph_code(tmp_path, 20, 5, ceiling=256 << 20)
    assert proc.returncode == 0, proc.stderr[-2000:]
    quad = " + ".join(["x1*x2", "x1*x20"] + [f"x{i}*x{i + 1}" for i in range(2, 20)])
    linear = " + ".join(f"x{i}" for i in range(1, 21))
    assert proc.stdout == (f"code: ((20, 2, 5))_p=2\nprovenance: graph-code\n"
                           f"basis[0]: {quad}\nbasis[1]: {linear} + {quad}\n")
    assert proc.stderr == ""


def test_graph_code_budget_past_n_stops_at_n(tmp_path):
    t0 = time.perf_counter()
    proc = cycle_graph_code(tmp_path, 5, 20)
    assert time.perf_counter() - t0 < 1
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr == (
        "error: classes [] and [1, 2, 3, 4, 5]: symmetric difference [1, 2, 3, 4, 5] is "
        "coverable below weight 20; witness omega=[1, 2, 3] delta=[2]\n"
    )
    assert proc.stdout == ""


def test_graph_code_coverage_over_the_listing_budget_is_refused(tmp_path):
    # 3^14 role tuples on the one support of size 14; walking all supports
    # would take 4^14 role tuples
    t0 = time.perf_counter()
    proc = cycle_graph_code(tmp_path, 14, 15)
    assert time.perf_counter() - t0 < 1
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert proc.stderr == (
        "capacity: 3^14 = 4782969 coverage role tuples exceed the listing budget 4194304\n"
    )
    assert proc.stdout == ""


@pytest.mark.parametrize("K", [2048, 4096])
def test_graph_code_class_pairs_up_to_the_listing_budget(tmp_path, K):
    # every 12-bit mask below K is a class; at d = 1 no difference is coverable
    graph, classes = tmp_path / "c12.g", tmp_path / "c12.classes"
    graph.write_text("2 12\n" + "".join(f"{i} {i % 12 + 1}\n" for i in range(1, 13)))
    classes.write_text("".join(format(j, "012b") + "\n" for j in range(K)))
    t0 = time.perf_counter()
    proc = run_child(cli_code("graph-code", str(graph), "--classes", str(classes), "--d", "1"))
    elapsed = time.perf_counter() - t0
    if K == 2048:
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines = proc.stdout.splitlines()
        assert lines[:2] == ["code: ((12, 2048, 1))_p=2", "provenance: graph-code"]
        assert len(lines) == 2 + 2048 and lines[-1].startswith("basis[2047]: x2 + x3 + ")
    else:
        assert elapsed < 1
        assert proc.returncode == 3, proc.stderr[-2000:]
        assert proc.stderr == (
            "capacity: K^2 = 16777216 class pairs exceed the listing budget 4194304\n"
        )
        assert proc.stdout == ""
