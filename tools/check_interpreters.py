"""Run the seeded sweeps, the sampler digest and the worked class-relation
check under every Python 3.10+ interpreter found.

    python3 tools/check_interpreters.py

Looks for ``python3.N`` (N >= 10) on PATH and for every
``<pyenv root>/versions/*/bin/python3`` (the pyenv root is $PYENV_ROOT,
or ~/.pyenv), skipping pyenv shims and duplicates of one executable.
Each interpreter runs ``tools/class_sweep.py --seed 1`` and ``--seed 2``,
``tools/sampler_digest.py --seed 1``, ``tools/qq_sweep.py --seed 1`` and
``tools/section_sweep.py --seed 1`` against this checkout's ``src``, and gets one line per run: its version,
its path, the tool and its arguments, the SHA-256 of the tool's output,
and whether that matches the digest pinned in ``tests/fixtures/``.
Those tools write JSON but never read it.  So each interpreter also runs
``python -m picforms.cli class-relation`` on the worked example's curve
and triples, written as JSON files, and its standard output must equal
``tests/fixtures/class_relation_worked.json`` byte for byte; that check
goes through the JSON readers, whose rational parser defers to the
interpreter's own ``Fraction`` for every string outside -?[0-9]+(/[0-9]+)?.
The tools need nothing beyond the standard library, so no test dependency
has to be installed.

Exit status: 0 when every interpreter matches, 1 when one differs or
fails, 2 when none is found.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# (tool, its arguments, the pinned SHA-256 of its output)
CHECKS = (
    ("class_sweep.py", ["--seed", "1"], "class_sweep_seed1.sha256"),
    ("class_sweep.py", ["--seed", "2"], "class_sweep_seed2.sha256"),
    ("sampler_digest.py", ["--seed", "1"], "sampler_draws_seed1.sha256"),
    ("qq_sweep.py", ["--seed", "1"], "qq_sweep_seed1.sha256"),
    ("section_sweep.py", ["--seed", "1"], "section_sweep_seed1.sha256"),
)
# the worked example: Y^2 = X^4 - 1 over QQ, (1, 1, X^2) and
# (X^2 - 1, -X^2 - 1, 0), as test_criterion_10_worked_fixture writes them
WORKED_INPUTS = {
    "curve": {"field": {"p": None, "m": 1}, "coeffs": ["-1", "0", "0", "0", "1"]},
    "t1": {"u": ["1", "0", "0"], "v": ["1", "0", "0"], "w": ["0", "0", "1"]},
    "t2": {"u": ["-1", "0", "1"], "v": ["-1", "0", "-1"], "w": ["0", "0", "0"]},
}
WORKED_FIXTURE = "class_relation_worked.json"
MIN_MINOR = 10
TIMEOUT_S = 600


def _version(path):
    """(major, minor, micro) of the interpreter at path, or None."""
    try:
        done = subprocess.run(
            [path, "-c", "import sys; print('%d %d %d' % sys.version_info[:3])"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return tuple(int(x) for x in done.stdout.split())


def interpreters():
    """[(version, path)] of the distinct Python 3.10+ executables found."""
    candidates = []
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        if not directory or os.sep + "shims" in directory:
            continue
        for path in glob.glob(os.path.join(directory, "python3.*")):
            if re.fullmatch(r"python3\.\d+", os.path.basename(path)):
                candidates.append(path)
    pyenv = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    candidates += sorted(glob.glob(os.path.join(pyenv, "versions", "*", "bin", "python3")))
    found, seen = [], set()
    for path in candidates:
        real = os.path.realpath(path)
        if real in seen or not os.access(real, os.X_OK):
            continue
        seen.add(real)
        version = _version(path)
        if version and version[0] == 3 and version[1] >= MIN_MINOR:
            found.append((version, path))
    return sorted(found)


def output_digest(path, argv):
    """The SHA-256 of the standard output of the interpreter at path run
    with the arguments argv."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([path] + argv, capture_output=True, env=env, timeout=TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(done.stderr.decode(errors="replace").strip().splitlines()[-1:])
    return hashlib.sha256(done.stdout).hexdigest()


def checks(workdir):
    """[(label, argv, pinned SHA-256)]: the tool runs, then class-relation
    on the worked example's inputs, written into workdir."""
    fixtures = os.path.join(ROOT, "tests", "fixtures")
    out = []
    for tool, args, fixture in CHECKS:
        with open(os.path.join(fixtures, fixture)) as fh:
            pinned = fh.read().split()[0]
        out.append((" ".join([tool] + args), [os.path.join(ROOT, "tools", tool)] + args, pinned))
    argv = ["-m", "picforms.cli", "class-relation"]
    for name, doc in WORKED_INPUTS.items():
        doc_path = os.path.join(workdir, name + ".json")
        with open(doc_path, "w") as fh:
            json.dump(doc, fh)
        argv += ["--" + name, doc_path]
    with open(os.path.join(fixtures, WORKED_FIXTURE), "rb") as fh:
        pinned = hashlib.sha256(fh.read()).hexdigest()
    out.append(("picforms.cli class-relation (worked example)", argv, pinned))
    return out


def main():
    found = interpreters()
    if not found:
        print("no Python 3.%d+ interpreter found" % MIN_MINOR)
        return 2
    status = 0
    with tempfile.TemporaryDirectory() as workdir:
        runs = checks(workdir)
        for version, path in found:
            for what, argv, pinned in runs:
                label = "%d.%d.%d %s %s" % (version + (path, what))
                try:
                    digest = output_digest(path, argv)
                except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
                    print("%s failed: %s" % (label, exc))
                    status = 1
                    continue
                match = digest == pinned
                print("%s %s %s" % (label, digest, "matches" if match else "DIFFERS"))
                status = status or (0 if match else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
