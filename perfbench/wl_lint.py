"""``lint_tree``: the ``repro-lint`` CLI over a frozen copy of the source.

The corpus (``src/``, ``tests/`` and ``.repro-lint-baseline.json`` as of
commit 946b666, exported with ``git archive``) is stored in
``corpus.tar.gz``, so a change that adds or deletes source does not
change this workload's input.  The linter itself is the checkout's.
"""

from __future__ import annotations

import json
import os
import subprocess
import tarfile

from common import HERE, fresh_dir, module_command

#: What ``repro-lint`` reports on the frozen corpus.
REFERENCE_KEYS = ("files_checked", "errors", "warnings", "suppressed",
                  "baselined")


def counts_of(report):
    counts = {key: report[key] for key in REFERENCE_KEYS}
    counts["findings"] = len(report["findings"])
    return counts


class LintTree:
    name = "lint_tree"

    def setup(self, seed, check=True, inject=None):
        self.seed = seed
        self.inject = inject
        self.corpus = fresh_dir("corpus")
        with tarfile.open(os.path.join(HERE, "corpus.tar.gz")) as archive:
            archive.extractall(self.corpus, filter="data")
        self.reference = None
        if check:
            with open(os.path.join(HERE, "reference.json")) as handle:
                self.reference = json.load(handle)[self.name]
        self.trace_out = None
        self.last_counts = None

    def workload_id(self):
        return "corpus@946b666:jobs=2"

    def run_once(self):
        completed = subprocess.run(
            module_command("repro.analysis", self.trace_out, self.inject)
            + [".", "--jobs", "2", "--format", "json"],
            cwd=self.corpus, stdout=subprocess.PIPE, check=False,
        )
        try:
            counts = counts_of(json.loads(completed.stdout))
        except (ValueError, KeyError):
            counts = None
        self.last_counts = counts
        return counts

    def body(self):
        counts = self.run_once()
        files = counts["files_checked"] if counts else 0
        failed = int(counts != self.reference)
        return {"ops": files, "attempted": 1, "failed": failed,
                "ok": 1 - failed}

    def teardown(self):
        pass
