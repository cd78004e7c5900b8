"""repro-lint: the AST invariant checkers detect violations, spare clean code,
honor suppressions, and find nothing unsuppressed in the library itself.

Each checker gets a fixture corpus of true positives and clean near-misses:
a checker that over-bans is as much a bug as one that under-detects, because
the tier-1 gate (``test_library_source_lints_clean``) would force spurious
suppressions into the library.  Error codes and annotation conventions are
documented in docs/STATIC_ANALYSIS.md.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.tools.lint import all_codes, lint_paths, lint_source
from repro.tools.lint.cli import main as lint_main

SRC_ROOT = Path(__file__).resolve().parent.parent.parent / "src" / "repro"


def codes_in(source, select=None):
    """Unsuppressed codes the linter reports for *source*."""
    report = lint_source(textwrap.dedent(source), path="fixture.py", select=select)
    return [finding.code for finding in report.unsuppressed]


# ----------------------------------------------------------------------
# The library itself must be clean (the tier-1 gate CI re-runs as a step)
# ----------------------------------------------------------------------
def test_library_source_lints_clean():
    report = lint_paths([str(SRC_ROOT)])
    rendered = "\n".join(f.render() for f in report.unsuppressed)
    assert not report.unsuppressed, f"repro-lint findings in src/repro:\n{rendered}"
    assert report.files_scanned > 50  # the whole tree was actually scanned


def test_every_suppression_in_library_names_known_codes():
    # RPL001 is itself unsuppressible, so a clean run already proves this;
    # make the intent explicit by selecting only the engine codes.
    report = lint_paths([str(SRC_ROOT)], select="RPL0")
    assert not report.unsuppressed


# ----------------------------------------------------------------------
# Determinism checker (RPL1xx)
# ----------------------------------------------------------------------
class TestDeterminismChecker:
    def test_detects_module_level_numpy_call(self):
        assert "RPL101" in codes_in(
            """
            import numpy as np
            x = np.random.rand(3)
            """
        )

    def test_detects_aliased_numpy_random_import(self):
        # The regex lint this checker replaced could not see through aliases.
        assert "RPL101" in codes_in(
            """
            from numpy import random
            x = random.standard_normal(4)
            """
        )
        assert "RPL101" in codes_in(
            """
            import numpy.random as npr
            x = npr.permutation(10)
            """
        )

    def test_detects_stdlib_random(self):
        assert "RPL102" in codes_in(
            """
            import random
            random.seed(42)
            """
        )
        assert "RPL102" in codes_in(
            """
            from random import choice
            pick = choice([1, 2, 3])
            """
        )

    def test_detects_argless_default_rng(self):
        assert "RPL103" in codes_in(
            """
            from numpy.random import default_rng
            rng = default_rng()
            """
        )

    def test_detects_argless_seed_sequence(self):
        assert "RPL103" in codes_in(
            """
            import numpy as np
            seq = np.random.SeedSequence()
            """
        )

    def test_detects_os_entropy(self):
        assert "RPL104" in codes_in(
            """
            import os
            token = os.urandom(16)
            """
        )
        assert "RPL104" in codes_in(
            """
            import uuid
            run_id = uuid.uuid4()
            """
        )
        assert "RPL104" in codes_in(
            """
            import secrets
            token = secrets.token_hex(8)
            """
        )

    def test_detects_time_derived_seed(self):
        assert "RPL105" in codes_in(
            """
            import time
            import numpy as np
            rng = np.random.default_rng(int(time.time()))
            """
        )
        assert "RPL105" in codes_in(
            """
            import time
            from repro.optimizers import build_optimizer
            optimizer = build_optimizer("magma", seed=time.time_ns())
            """
        )

    def test_clean_seeded_constructors(self):
        clean = """
            import numpy as np
            from numpy.random import default_rng
            from repro.utils.rng import ensure_rng

            def build(seed):
                rng: np.random.Generator = ensure_rng(seed)
                seq = np.random.SeedSequence(seed)
                a = np.random.default_rng(seed)
                b = default_rng(seed)
                return rng, seq, a, b
            """
        assert codes_in(clean) == []

    def test_clean_generator_method_calls(self):
        # self.rng.random(...) is a Generator method, not module-level entropy.
        assert (
            codes_in(
                """
            class Sampler:
                def __init__(self, rng):
                    self.rng = rng

                def draw(self, size):
                    return self.rng.random(size)
            """
            )
            == []
        )

    def test_clean_time_outside_seed_position(self):
        # Wall-clock timing of a run is fine; only seeds are banned.
        assert (
            codes_in(
                """
            import time

            def elapsed(start):
                return time.time() - start
            """
            )
            == []
        )


# ----------------------------------------------------------------------
# Lock discipline checker (RPL2xx)
# ----------------------------------------------------------------------
LOCKED_CLASS = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._jobs = {{}}  # guarded-by: _lock

        def put(self, key, value):
            {put_body}
"""


class TestLockDisciplineChecker:
    def test_detects_unguarded_assignment(self):
        source = LOCKED_CLASS.format(put_body="self._jobs[key] = value")
        assert "RPL201" in codes_in(source)

    def test_detects_unguarded_mutator_call(self):
        source = LOCKED_CLASS.format(put_body="self._jobs.setdefault(key, value)")
        assert "RPL201" in codes_in(source)

    def test_clean_mutation_under_lock(self):
        source = LOCKED_CLASS.format(
            put_body="with self._lock:\n                self._jobs[key] = value"
        )
        assert codes_in(source) == []

    def test_init_is_exempt(self):
        # Re-assigning the guarded dict during construction is fine: the
        # object is not shared yet.
        assert (
            codes_in(
                """
            import threading

            class Store:
                def __init__(self, seed_jobs):
                    self._lock = threading.Lock()
                    self._jobs = {}  # guarded-by: _lock
                    for key, value in seed_jobs.items():
                        self._jobs[key] = value
            """
            )
            == []
        )

    def test_holds_lock_helper_may_mutate(self):
        assert (
            codes_in(
                """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        self._bump_locked()

                def _bump_locked(self):  # holds-lock: _lock
                    self._count += 1
            """
            )
            == []
        )

    def test_holds_lock_reacquire_is_deadlock(self):
        assert "RPL203" in codes_in(
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # guarded-by: _lock

                def _bump_locked(self):  # holds-lock: _lock
                    with self._lock:
                        self._count += 1
            """
        )

    def test_unknown_lock_annotation_rejected(self):
        assert "RPL202" in codes_in(
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._jobs = {}  # guarded-by: _mutex
            """
        )

    def test_acquires_lock_method_must_take_it(self):
        assert "RPL204" in codes_in(
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def flush(self):  # acquires-lock: _lock
                    return 0
            """
        )
        assert (
            codes_in(
                """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def flush(self):  # acquires-lock: _lock
                    with self._lock:
                        return 0
            """
            )
            == []
        )

    def test_closure_does_not_inherit_lock_context(self):
        # A callback defined under the lock may run after it is released.
        assert "RPL201" in codes_in(
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._jobs = {}  # guarded-by: _lock

                def deferred(self, key, value):
                    with self._lock:
                        def later():
                            self._jobs[key] = value
                        return later
            """
        )


# ----------------------------------------------------------------------
# Pickle safety checker (RPL3xx)
# ----------------------------------------------------------------------
class TestPickleChecker:
    @pytest.mark.parametrize("call", ["pickle.loads(payload)", "pickle.load(handle)", "pickle.Unpickler(handle)"])
    def test_detects_every_deserializing_entry_point(self, call):
        assert codes_in(
            f"""
            import pickle

            def decode(payload, handle):
                return {call}
            """
        ) == ["RPL301"]

    def test_sees_through_import_aliases(self):
        assert codes_in(
            """
            import pickle as codec
            from pickle import loads as decode_frame

            def decode(payload):
                return codec.loads(payload), decode_frame(payload)
            """
        ) == ["RPL301", "RPL301"]

    def test_no_annotation_exempts_a_decoder(self):
        # The retired '# rpc-frame: decoder' grammar is no escape hatch.
        assert "RPL301" in codes_in(
            """
            import pickle

            def decode(sock):
                # rpc-frame: decoder
                return pickle.loads(sock.recv(4096))
            """
        )

    @pytest.mark.parametrize(
        "source",
        [
            "import _pickle\n\ndef decode(payload):\n    return _pickle.loads(payload)\n",
            "from _pickle import Unpickler\n\ndef decode(handle):\n    return Unpickler(handle).load()\n",
        ],
        ids=["c-module-call", "c-module-import"],
    )
    def test_detects_the_c_accelerator_module(self, source):
        assert codes_in(source) == ["RPL301"]

    @pytest.mark.parametrize(
        "source",
        [
            "import pickle\n\ndecode = pickle.loads\n",
            "import pickle\n\ndef decode_all(frames):\n    return list(map(pickle.loads, frames))\n",
            "import functools\nimport pickle\n\nread_one = functools.partial(pickle.load)\n",
            "import pickle\n\nclass FrameReader(pickle.Unpickler):\n    pass\n",
            "import pickle\n\nclass Codec:\n    def decode(self, payload):\n        return pickle.loads(payload)\n",
            "import pickle\n\nCACHED = pickle.loads(b'')\n",
        ],
        ids=["aliased-as-value", "passed-to-map", "partial", "subclassed", "method", "module-level"],
    )
    def test_detects_every_reference_not_only_direct_calls(self, source):
        # A decoder handed around as a value deserializes just the same.
        assert codes_in(source) == ["RPL301"]

    @pytest.mark.parametrize(
        "source",
        [
            "import pickle\n\ndef save(obj, handle):\n    pickle.dump(obj, handle, protocol=pickle.HIGHEST_PROTOCOL)\n",
            "import pickle\n\ndef writer(handle):\n    return pickle.Pickler(handle)\n",
            "class Store:\n    def read(self, payload):\n        return self.loads(payload)\n",
            "def load(path):\n    return path\n\nload('x')\n",
            "import json\n\ndef read(handle):\n    return json.load(handle)\n",
        ],
        ids=["dump", "pickler", "attribute-named-loads", "own-function-named-load", "json-load"],
    )
    def test_near_misses_are_clean(self, source):
        assert codes_in(source) == []

    def test_serializing_and_json_decoding_are_clean(self):
        assert (
            codes_in(
                """
            import json
            import pickle

            def encode(message):
                return pickle.dumps(message)

            def decode(payload):
                return json.loads(payload)
            """
            )
            == []
        )


# ----------------------------------------------------------------------
# Resource lifecycle checker (RPL4xx)
# ----------------------------------------------------------------------
class TestResourceLifecycleChecker:
    def test_detects_discarded_socket(self):
        assert "RPL402" in codes_in(
            """
            import socket

            def poke(host, port):
                socket.create_connection((host, port), timeout=1.0)
            """
        )

    def test_detects_unclosed_bound_resource(self):
        assert "RPL401" in codes_in(
            """
            def read(path):
                handle = open(path)
                return handle.read()
            """
        )

    def test_clean_with_statement(self):
        assert (
            codes_in(
                """
            def read(path):
                with open(path) as handle:
                    return handle.read()
            """
            )
            == []
        )

    def test_clean_finally_paired_close(self):
        assert (
            codes_in(
                """
            import socket

            def probe(host, port):
                sock = socket.create_connection((host, port), timeout=1.0)
                try:
                    return sock.recv(1)
                finally:
                    sock.close()
            """
            )
            == []
        )

    def test_clean_immediate_close(self):
        assert (
            codes_in(
                """
            import socket

            def wake(host, port):
                socket.create_connection((host, port), timeout=0.2).close()
            """
            )
            == []
        )

    def test_clean_ownership_transfers(self):
        # Returning, storing on self, and handing to another call all move
        # responsibility for the close elsewhere.
        assert (
            codes_in(
                """
            import socket
            import threading

            class Server:
                def listen(self, host, port):
                    self.listener = socket.create_server((host, port))

                def accept_loop(self, handler):
                    conn, _ = self.listener.accept()
                    thread = threading.Thread(target=handler, args=(conn,))
                    thread.start()

            def connect(host, port):
                return socket.create_connection((host, port))
            """
            )
            == []
        )

    def test_detects_unterminated_pool(self):
        assert "RPL401" in codes_in(
            """
            import multiprocessing

            def run(tasks):
                pool = multiprocessing.Pool(4)
                return pool.map(len, tasks)
            """
        )

    def test_detects_unclosed_pipe_and_unreaped_process(self):
        assert "RPL401" in codes_in(
            """
            import multiprocessing

            def ask(question):
                parent, child = multiprocessing.Pipe()
                parent.send(question)
                return child.recv()
            """
        )
        assert "RPL401" in codes_in(
            """
            def launch(context, target):
                process = context.Process(target=target)
                process.start()
                return process.pid
            """
        )

    def test_clean_pipe_handed_to_a_reaped_process(self):
        assert (
            codes_in(
                """
            def launch(context, target):
                conn, child = context.Pipe()
                process = context.Process(target=target, args=(child,))
                process.start()
                child.close()
                try:
                    return conn.recv()
                finally:
                    conn.close()
                    process.join()
            """
            )
            == []
        )


# ----------------------------------------------------------------------
# Exception policy checker (RPL5xx)
# ----------------------------------------------------------------------
class TestExceptionPolicyChecker:
    def test_detects_bare_except(self):
        assert "RPL501" in codes_in(
            """
            def risky(task):
                try:
                    return task()
                except:
                    return None
            """
        )

    def test_detects_silent_broad_handler(self):
        assert "RPL502" in codes_in(
            """
            def risky(task):
                try:
                    return task()
                except Exception:
                    pass
            """
        )
        assert "RPL502" in codes_in(
            """
            def risky(task):
                try:
                    return task()
                except (ValueError, Exception):
                    return False
            """
        )

    def test_clean_broad_handler_that_records(self):
        assert (
            codes_in(
                """
            def risky(task, errors):
                try:
                    return task()
                except Exception as error:
                    errors.append(error)
                    return None
            """
            )
            == []
        )

    def test_clean_narrow_handler(self):
        assert (
            codes_in(
                """
            def risky(task):
                try:
                    return task()
                except (ValueError, OSError):
                    return None
            """
            )
            == []
        )


# ----------------------------------------------------------------------
# Suppressions and the engine
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_line_suppression_honored(self):
        source = """
            import random
            random.seed(42)  # repro-lint: disable=RPL102 — fixture needs stdlib stream
            """
        report = lint_source(textwrap.dedent(source), path="fixture.py")
        assert not report.unsuppressed
        assert [f.code for f in report.suppressed] == ["RPL102"]

    def test_prefix_suppression_honored(self):
        source = """
            import random
            random.seed(42)  # repro-lint: disable=RPL1
            """
        assert codes_in(source) == []

    def test_file_level_suppression_honored(self):
        source = """
            # repro-lint: disable-file=RPL102 — this module owns the legacy stream
            import random

            def a():
                random.seed(1)

            def b():
                random.random()
            """
        report = lint_source(textwrap.dedent(source), path="fixture.py")
        assert not report.unsuppressed
        assert len(report.suppressed) == 2

    def test_suppression_only_covers_named_code(self):
        source = """
            import random
            random.seed(42)  # repro-lint: disable=RPL101
            """
        assert "RPL102" in codes_in(source)

    def test_unknown_code_suppression_rejected(self):
        source = """
            x = 1  # repro-lint: disable=RPL999
            """
        assert "RPL001" in codes_in(source)

    def test_rpl001_cannot_be_suppressed(self):
        source = """
            x = 1  # repro-lint: disable=RPL999,RPL001
            """
        assert "RPL001" in codes_in(source)

    def test_syntax_error_reported_not_raised(self):
        report = lint_source("def broken(:\n", path="fixture.py")
        assert [f.code for f in report.findings] == ["RPL002"]

    def test_select_filters_by_prefix(self):
        source = """
            import random

            def risky(task):
                try:
                    return task()
                except Exception:
                    pass
                random.seed(42)
            """
        assert codes_in(source, select="RPL1") == ["RPL102"]
        assert codes_in(source, select="RPL5") == ["RPL502"]
        assert set(codes_in(source, select="RPL1,RPL5")) == {"RPL102", "RPL502"}

    def test_code_tables_are_unique_and_documented(self):
        codes = all_codes()
        assert len(codes) >= 18
        for code, description in codes.items():
            assert code.startswith("RPL") and len(code) == 6
            assert description


# ----------------------------------------------------------------------
# CLI (repro-magma lint / python -m repro.tools.lint)
# ----------------------------------------------------------------------
class TestLintCli:
    @pytest.fixture()
    def bad_file(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("import random\nrandom.seed(1)\n", encoding="utf-8")
        return path

    def test_text_output_and_exit_status(self, bad_file, capsys):
        status = lint_main([str(bad_file)])
        out = capsys.readouterr().out
        assert status == 1
        assert "RPL102" in out
        assert "bad.py:2:1" in out

    def test_json_output_and_artifact(self, bad_file, tmp_path, capsys):
        artifact = tmp_path / "report.json"
        status = lint_main([str(bad_file), "--format", "json", "--out", str(artifact)])
        payload = json.loads(capsys.readouterr().out)
        assert status == 1
        assert payload["files_scanned"] == 1
        assert payload["summary"] == {"RPL102": 1}
        assert payload["findings"][0]["code"] == "RPL102"
        assert json.loads(artifact.read_text(encoding="utf-8")) == payload

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("VALUE = 1\n", encoding="utf-8")
        assert lint_main([str(path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_select_gate(self, bad_file, capsys):
        assert lint_main([str(bad_file), "--select", "RPL4"]) == 0
        assert lint_main([str(bad_file), "--select", "RPL1"]) == 1
        capsys.readouterr()

    def test_repro_magma_lint_subcommand(self, bad_file, capsys):
        from repro.cli import main as magma_main

        status = magma_main(["lint", str(bad_file)])
        assert status == 1
        assert "RPL102" in capsys.readouterr().out

    def test_list_codes(self, capsys):
        assert lint_main(["--list-codes"]) == 0
        out = capsys.readouterr().out
        assert "RPL101" in out and "RPL502" in out


# ----------------------------------------------------------------------
# Diagnostics checker (RPL6xx)
# ----------------------------------------------------------------------
class TestDiagnosticsChecker:
    def test_detects_print_in_library_code(self):
        report = lint_source(
            'def run():\n    print("done")\n', path="src/repro/core/framework.py"
        )
        assert [f.code for f in report.unsuppressed] == ["RPL601"]

    def test_detects_logging_import_in_library_code(self):
        report = lint_source(
            "import logging\n", path="src/repro/service/service.py"
        )
        assert [f.code for f in report.unsuppressed] == ["RPL602"]
        report = lint_source(
            "from logging import getLogger\n", path="src/repro/service/service.py"
        )
        assert [f.code for f in report.unsuppressed] == ["RPL602"]

    def test_cli_entry_points_may_print(self):
        for path in ("src/repro/cli.py", "src/repro/tools/lint/__main__.py"):
            report = lint_source('print("usage: ...")\n', path=path)
            assert not report.unsuppressed, path

    def test_obs_package_may_print_but_not_import_logging(self):
        report = lint_source(
            'def render():\n    print("table")\n', path="src/repro/obs/flight.py"
        )
        assert not report.unsuppressed
        report = lint_source("import logging\n", path="src/repro/obs/trace.py")
        assert [f.code for f in report.unsuppressed] == ["RPL602"]

    def test_shadowed_print_and_submodule_imports_are_clean(self):
        # A local variable named print-like attribute call is not print().
        report = lint_source(
            "class Report:\n"
            "    def print(self):\n"
            "        return 1\n"
            "def run(report):\n"
            "    report.print()\n",
            path="src/repro/analysis/reporting.py",
        )
        assert not report.unsuppressed

    def test_suppression_comment_is_honored(self):
        report = lint_source(
            'print("x")  # repro-lint: disable=RPL601 — fixture rationale\n',
            path="src/repro/core/framework.py",
        )
        assert not report.unsuppressed
        assert [f.code for f in report.suppressed] == ["RPL601"]
