"""The exact row reader of simulate and figures: strided shares, forked workers.

``cli._exact_orbits`` splits the rows of every orbit into P strided shares,
share j holding the times t = j (mod P), reads share 0 in its own process and
the others in forked children. These tests show that the split changes no
bit of any row, and that a worker that cannot start, fails, sends a short
payload or outlives an error never changes the output, the exit code or the
set of running processes. Only a process of one OS thread forks: a test that
fakes CPUs fakes that thread count too, since the test runner's imports start
threads of their own. No test fakes more than 3 CPUs.
"""

import hashlib
import json
import marshal
import os
import signal
import subprocess
import sys
import threading
import types
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conmot import cli
from conmot.cli import main
from conmot.exact import BipartiteInvariant, ExactAltOrbit, PayoffData

SQUARE = BipartiteInvariant(PayoffData.from_matrix([[1]]), Fraction(1, 10), Fraction(1, 5))
RECT = BipartiteInvariant(PayoffData.from_matrix([[Fraction(1, 4), -1, 2],
                                                  [3, Fraction(-1, 2), 1]]),
                          Fraction(1, 10), Fraction(1, 5))
DOC = {
    "map": {"kind": "alt_play", "payoff": {"matrix": [[1]]}, "step_sizes": ["1/10", "1/5"]},
    "initial_states": [[60, -25], [-20, 2], [10, -50]],
    "steps": {"forward": 200, "backward": 20},
    "output": {"prefix": "hyp"},
}


def _bits(rows):
    """Rows with every float as its hex string: equal means equal bit for bit."""
    return [[(t, [v.hex() for v in xy], f.hex(), phi.hex(), defect.hex())
             for t, xy, f, phi, defect in orbit] for orbit in rows]


def _fake_cpus(monkeypatch, n: int, threads: int | None = 1) -> None:
    """n usable CPUs and, unless threads is None, that many OS threads."""
    assert n <= 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    if threads is not None:
        monkeypatch.setattr(cli, "_os_threads", lambda: threads)


def _simulate(tmp_path, name: str) -> tuple[int, dict]:
    """Exit code of simulate on DOC and the SHA-256 of every file it wrote."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(DOC))
    out = tmp_path / name
    rc = main(["--config", str(config), "--out", str(out), "simulate"])
    return rc, {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@pytest.fixture
def one_cpu_bytes(tmp_path, monkeypatch):
    """What simulate writes for DOC when it reads every row in one process."""
    with monkeypatch.context() as m:
        _fake_cpus(m, 1)
        m.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
        rc, digests = _simulate(tmp_path, "one-cpu")
    assert rc == 0
    return digests


def _games():
    small = st.integers(-40, 40)
    point = st.fractions(min_value=-20, max_value=20, max_denominator=8)
    square = st.tuples(st.just(SQUARE), st.lists(st.tuples(small, small), min_size=1, max_size=3))
    rect = st.tuples(st.just(RECT), st.lists(st.tuples(*[point] * 5), min_size=1, max_size=2))
    return st.one_of(square, rect)


@settings(max_examples=30, deadline=None)
@given(_games(), st.integers(0, 25), st.integers(0, 25), st.sampled_from([1, 2, 3]))
def test_the_strided_shares_together_are_the_one_share_rows_bit_for_bit(
        game, n_forward, n_backward, shares):
    phi, inits = game
    inits = [list(init) for init in inits]
    with mock.patch.object(cli, "_usable_cpus", return_value=1):
        whole, levels = cli._exact_orbits(phi, inits, n_forward, n_backward)
    # Every share read here, on the same orbits one after another.
    with mock.patch.object(cli, "_usable_cpus", return_value=shares), \
            mock.patch.object(cli, "_fork_share", return_value=None):
        split, split_levels = cli._exact_orbits(phi, inits, n_forward, n_backward)
    assert [[row[0] for row in orbit] for orbit in whole] == (
        [list(range(-n_backward, n_forward + 1))] * len(inits))
    assert _bits(split) == _bits(whole)
    assert split_levels == levels == [phi.exact(init) for init in inits]
    # Each share holds its residue class alone.
    orbits = [ExactAltOrbit(phi, init) for init in inits]
    for share in range(shares):
        for orbit in cli._read_share(orbits, n_forward, n_backward, share, shares):
            assert all(t % shares == share for t, *_ in orbit)


@pytest.mark.parametrize("cpus", [2, 3])
def test_simulate_writes_the_same_bytes_on_any_number_of_cpus(
        tmp_path, monkeypatch, one_cpu_bytes, cpus):
    _fake_cpus(monkeypatch, cpus)
    forks = mock.Mock(wraps=os.fork)
    monkeypatch.setattr(os, "fork", forks)
    assert _simulate(tmp_path, "forked") == (0, one_cpu_bytes)
    assert forks.call_count == cpus - 1


def test_one_usable_cpu_never_forks(tmp_path, monkeypatch, one_cpu_bytes, capsys):
    _fake_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
    assert _simulate(tmp_path, "again") == (0, one_cpu_bytes)
    assert main(["--out", str(tmp_path / "fig"), "figures", "fig1"]) == 0
    assert "fig1: levels 31375, 3940, -12000" in capsys.readouterr().out


def test_a_process_with_a_second_thread_reads_every_row_here(
        tmp_path, monkeypatch, one_cpu_bytes):
    _fake_cpus(monkeypatch, 3, threads=None)
    monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert cli._os_threads() >= 2
        assert _simulate(tmp_path, "threaded") == (0, one_cpu_bytes)
    finally:
        release.set()
        thread.join()


# figures fig1 in a fresh interpreter with two usable CPUs: the number of
# forks, and whether numpy was loaded.
FRESH_FIGURES = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
real_fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or real_fork()
from conmot.cli import main
assert main(["--out", sys.argv[1], "figures", "fig1"]) == 0
print(len(forks), "numpy" in sys.modules)
"""


def test_a_fresh_command_line_process_forks_its_row_readers(tmp_path):
    """The command line never loads numpy, so it runs one OS thread and the
    figures rows are read in a forked child as well as here."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", FRESH_FIGURES, str(tmp_path / "fig")],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "1 False"


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_worker_that_cannot_start_has_its_share_read_here(
        tmp_path, monkeypatch, one_cpu_bytes, capsys, call):
    _fake_cpus(monkeypatch, 3)
    monkeypatch.setattr(os, call, mock.Mock(side_effect=OSError(11, "no room")))
    assert _simulate(tmp_path, "no-worker") == (0, one_cpu_bytes)
    assert capsys.readouterr().err == ""


def _in_workers(parent: int, in_worker, in_parent):
    """A function that runs in_worker in a forked child and in_parent here."""
    return lambda *args: (in_worker if os.getpid() != parent else in_parent)(*args)


def test_a_worker_that_fails_has_its_share_read_here_without_a_traceback(
        tmp_path, monkeypatch, one_cpu_bytes, capfd):
    def fail(*args):
        raise RuntimeError("worker failed")

    _fake_cpus(monkeypatch, 3)
    monkeypatch.setattr(cli, "_read_share", _in_workers(os.getpid(), fail, cli._read_share))
    assert _simulate(tmp_path, "failed-worker") == (0, one_cpu_bytes)
    assert "Traceback" not in capfd.readouterr().err


def test_a_worker_that_exits_non_zero_has_its_share_read_here(
        tmp_path, monkeypatch, one_cpu_bytes):
    """The worker sends its whole payload and then exits with status 3."""
    real_exit = os._exit
    reads = mock.Mock(wraps=cli._read_share)
    _fake_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "_exit", lambda status: real_exit(3))  # called in workers only
    monkeypatch.setattr(cli, "_read_share", _in_workers(os.getpid(), cli._read_share, reads))
    assert _simulate(tmp_path, "worker-exit-3") == (0, one_cpu_bytes)
    assert [c.args[3:] for c in reads.call_args_list] == [(0, 2), (1, 2)]


def test_a_worker_that_sends_a_short_payload_has_its_share_read_here(
        tmp_path, monkeypatch, one_cpu_bytes):
    short = types.SimpleNamespace(
        dumps=_in_workers(os.getpid(), lambda obj: marshal.dumps(obj)[:-7], marshal.dumps),
        loads=marshal.loads)
    _fake_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "marshal", short)
    assert _simulate(tmp_path, "short-payload") == (0, one_cpu_bytes)


def test_a_failing_worker_exits_and_never_returns_to_its_caller(monkeypatch):
    parent = os.getpid()
    monkeypatch.setattr(cli, "_read_share", mock.Mock(side_effect=RuntimeError("worker failed")))
    orbits = [ExactAltOrbit(SQUARE, [60, -25])]
    try:
        worker = cli._fork_share(orbits, 10, 10, 1, 2)
    except BaseException:
        if os.getpid() != parent:
            os._exit(7)  # the failure came back up into the caller
        raise
    if os.getpid() != parent:
        os._exit(8)  # the child returned into the caller
    pid, pipe = worker
    assert pipe.read() == b""
    pipe.close()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 1


def _timeout(signum, frame):
    raise TimeoutError("the row reader did not finish")


def test_a_payload_beyond_the_pipe_buffer_is_drained_before_the_wait(monkeypatch):
    inits = [[60, -25], [-20, 2], [10, -50], [-14, -5]]
    n_forward, n_backward = 700, 100
    orbits = [ExactAltOrbit(SQUARE, init) for init in inits]
    assert len(marshal.dumps(cli._read_share(orbits, n_forward, n_backward, 1, 2))) > 1 << 16
    _fake_cpus(monkeypatch, 2)
    forks = mock.Mock(wraps=os.fork)
    monkeypatch.setattr(os, "fork", forks)
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(60)
    try:
        rows, _ = cli._exact_orbits(SQUARE, inits, n_forward, n_backward)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert forks.call_count == 1
    with monkeypatch.context() as m:
        _fake_cpus(m, 1)
        whole, _ = cli._exact_orbits(SQUARE, inits, n_forward, n_backward)
    assert _bits(rows) == _bits(whole)


def test_every_worker_is_reaped_when_the_reader_raises(monkeypatch):
    parent = os.getpid()
    pids = []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    def fail(*args):
        raise RuntimeError("the reader failed")

    real_fork = os.fork
    _fake_cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "_read_share", _in_workers(parent, cli._read_share, fail))
    with pytest.raises(RuntimeError, match="the reader failed"):
        cli._exact_orbits(SQUARE, [[60, -25]], 300, 50)
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
