"""Seeded-mutation evidence that the statcheck gates hold on the netsim
fast-path kernels specifically.

The fast paths earn their place on memoized sweep hot paths only
because the static gates keep holding:

* ``EFF001`` — a memoized kernel that routes through
  ``fastpath_enabled()`` is still statically pure, *because* the env
  read is explicitly vouched ``@effect_free``.  Removing the vouch must
  re-surface the impurity.
* ``PERF002`` — re-introducing a hand-rolled per-packet scheduling loop
  anywhere in the fast-path module is flagged.

Protocol as in ``test_effect_rules``: copy the real source, assert the
copy is clean, inject one defect, assert exactly that defect is caught.
"""

from __future__ import annotations

from pathlib import Path

from repro.statcheck.cli import main

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
FASTPATH = REPO_SRC / "netsim" / "fastpath.py"

#: A memoized kernel exercising the fast-path surface, appended to the
#: copied module.  EFF001 matches ``memoize_sweep`` by name.
_PROBE = '''

def memoize_sweep(fn):
    return fn


@memoize_sweep
def _probe_kernel(size_bytes, payload_bytes, header_bytes):
    if fastpath_enabled():
        return packet_split(size_bytes, payload_bytes, header_bytes)
    return [size_bytes]
'''

_VOUCH = "@effect_free\ndef fastpath_enabled"


def _copy(tmp_path: Path, old: str = "", new: str = "", append: str = "") -> str:
    text = FASTPATH.read_text()
    if old:
        assert text.count(old) == 1, f"injection anchor not unique: {old!r}"
        text = text.replace(old, new)
    text += append
    # Keep the copy inside a ``netsim`` directory: PERF002 scopes by path.
    dest = tmp_path / "netsim" / "fastpath.py"
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(text)
    return str(dest)


def run(path: str, rules: str, capsys):
    code = main(["--rules", rules, path])
    return code, capsys.readouterr().out


class TestFastPathKernelGates:
    def test_vouched_kernel_is_clean_on_both_rules(self, tmp_path, capsys):
        path = _copy(tmp_path, append=_PROBE)
        code, out = run(path, "EFF001,PERF002", capsys)
        assert code == 0, out

    def test_unvouched_env_read_trips_eff001(self, tmp_path, capsys):
        path = _copy(tmp_path, _VOUCH, "def fastpath_enabled", append=_PROBE)
        code, out = run(path, "EFF001", capsys)
        assert code == 1
        assert "EFF001" in out and "_probe_kernel" in out

    def test_per_packet_schedule_loop_trips_perf002(self, tmp_path, capsys):
        path = _copy(
            tmp_path,
            append=(
                "\n\ndef _unbatched_replay(sim, times, deliver):\n"
                "    for t in times:\n"
                "        sim.schedule(t, deliver)\n"
            ),
        )
        code, out = run(path, "PERF002", capsys)
        assert code == 1
        assert "PERF002" in out and "_unbatched_replay" in out
