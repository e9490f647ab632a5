"""Outside-in tracing of ckdual's public entry points, one CLI invocation at a time.

``Tracer.install()`` replaces each traced function at every name it is bound
under in the ckdual modules (``ktheory.cokernel`` is the same object as
``zlinalg.cokernel``, so both are wrapped) and patches the traced methods on
their classes.  Each wrapper opens a span; a span stack makes every span's
self time exclude its child spans.  Counters read from arguments and results
are taken after the span closes and charged to a ``trace.hooks`` span of
their own, so they inflate no layer's self time.  Spans are aggregated per
name in memory and written out once, when the invocation ends.

``layer_metrics`` turns the dumps of one pass into the per-layer metrics and
``self_check`` compares them with the predicted active/idle pattern.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter


def _bits(matrix) -> int:
    return max((abs(e).bit_length() for row in matrix.entries for e in row), default=0)


def _hook_words(tr, args, result):
    tr.counters["sft.words_count"] += len(result)


def _hook_snf(tr, args, result):
    m = args[0]
    tr.maxima["zlinalg.snf_max_dim"] = max(tr.maxima["zlinalg.snf_max_dim"], m.rows, m.cols)
    bits = max(_bits(result.U), _bits(result.S), _bits(result.V))
    tr.maxima["zlinalg.snf_max_bits"] = max(tr.maxima["zlinalg.snf_max_bits"], bits)


def _hook_creation(tr, args, result):
    tr.creation_keys.add((id(args[0]),) + tuple(args[1:3]))


def _hook_relation(tr, args, result):
    tr.counters["fock.defect_columns"] += len(result.defects)


def _hook_hybrid_mul(tr, args, result):
    tr.counters["duality.terms_out"] += len(result.terms)
    tr.counters["duality.prov_out"] += len(result.prov)


def _hook_defect_scan(tr, args, result):
    tr.counters["duality.defect_columns"] += len(result[1])


def _hook_basis(tr, args, result):
    tr.counters["fock.basis_words"] += args[0].size


def _hook_nnz(tr, args, result):
    tr.counters["fock.matmul_nnz"] += sum(len(col) for col in result.cols.values())


# (module, function, span name, hook): wrapped at every binding in ckdual.
FUNCTIONS = (
    ("sft", "load_matrix", "sft.load_matrix", None),
    ("sft", "enumerate_words", "sft.words", _hook_words),
    ("zlinalg", "smith_normal_form", "zlinalg.snf", _hook_snf),
    ("zlinalg", "cokernel", "zlinalg.cokernel", None),
    ("zlinalg", "kernel_basis", "zlinalg.kernel_basis", None),
    ("ktheory", "k_groups", "ktheory.k_groups", None),
    ("ktheory", "duality_report", "ktheory.duality_report", None),
    ("fock", "build_creation", "fock.creation", _hook_creation),
    ("fock", "verify_relation", "fock.verify_relation", _hook_relation),
    ("fock", "rotation_operator", "fock.rotation", None),
    ("ckalg", "ck_is_zero", "ckalg.is_zero", None),
    ("ckalg", "ck_multiply", "ckalg.multiply", None),
    ("ckalg", "tensor_equal", "ckalg.tensor_equal", None),
    ("duality", "hybrid_mul", "duality.hybrid_mul", _hook_hybrid_mul),
    ("duality", "hybrid_defects", "duality.defect_scan", _hook_defect_scan),
    ("duality", "quotient_image", "duality.quotient", None),
)

# (module, class, method, span name, hook): patched on the class itself.
METHODS = (
    ("fock", "FockBasis", "__init__", "fock.basis", _hook_basis),
    ("fock", "FockOperator", "__matmul__", "fock.matmul", _hook_nnz),
    ("fock", "FockOperator", "__add__", "fock.add", None),
    ("fock", "FockOperator", "adjoint", "fock.adjoint", None),
    ("fock", "FockOperator", "scale", "fock.scale", None),
)


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, total seconds, self seconds]
        self.stack = []  # one [child seconds] frame per open span
        self.top = 0.0  # summed duration of spans opened with an empty stack
        self.counters = dict.fromkeys(
            ("sft.words_count", "fock.defect_columns", "duality.terms_out",
             "duality.prov_out", "duality.defect_columns", "fock.basis_words",
             "fock.matmul_nnz"), 0)
        self.maxima = {"zlinalg.snf_max_dim": 0, "zlinalg.snf_max_bits": 0}
        self.creation_keys = set()

    def _close(self, name: str, duration: float, child: float) -> None:
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += duration
        st[2] += duration - child
        if self.stack:
            self.stack[-1][0] += duration
        else:
            self.top += duration

    def wrap(self, name: str, fn, hook):
        stack = self.stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                self._close(name, duration, frame[0])
            if hook is not None:
                t1 = clock()
                hook(self, args, result)
                self._close("trace.hooks", clock() - t1, 0.0)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced entry point; fail if any binding was missed."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "ckdual" or name.startswith("ckdual.")}
        originals = []
        for mod_name, attr, span, hook in FUNCTIONS:
            fn = getattr(mods[f"ckdual.{mod_name}"], attr)
            wrapper = self.wrap(span, fn, hook)
            originals.append(fn)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, span, hook in METHODS:
            cls = getattr(mods[f"ckdual.{mod_name}"], cls_name)
            setattr(cls, attr, self.wrap(span, vars(cls)[attr], hook))
        for mod in mods.values():
            for key, value in vars(mod).items():
                if any(value is fn for fn in originals):
                    raise RuntimeError(f"{mod.__name__}.{key} escaped the tracer")

    def dump(self, path: str) -> None:
        """Write the aggregated spans and counters, and the symbolic zero-test
        cache statistics of this invocation."""
        info = sys.modules["ckdual.ckalg"]._is_zero_cached.cache_info()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "stats": self.stats,
                "top": self.top,
                "counters": self.counters,
                "maxima": self.maxima,
                "creation_distinct": len(self.creation_keys),
                "is_zero_hits": info.hits,
                "is_zero_misses": info.misses,
            }, fh)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(records) -> dict:
    """Per-layer metrics summed over one pass.

    ``records`` holds, per invocation, ``wall`` (fork to reap, seconds),
    ``stdout_bytes`` and ``dump`` (the Tracer dump).
    """
    calls, self_s, counters, maxima = {}, {}, {}, {}
    distinct = hits = misses = 0
    unattributed = 0.0
    for rec in records:
        d = rec["dump"]
        for name, (c, _total, s) in d["stats"].items():
            calls[name] = calls.get(name, 0) + c
            self_s[name] = self_s.get(name, 0.0) + s
        for name, v in d["counters"].items():
            counters[name] = counters.get(name, 0) + v
        for name, v in d["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), v)
        distinct += d["creation_distinct"]
        hits += d["is_zero_hits"]
        misses += d["is_zero_misses"]
        unattributed += rec["wall"] - d["top"]

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    return {
        "cli.invocations": len(records),
        "cli.stdout_bytes": sum(rec["stdout_bytes"] for rec in records),
        "cli.unattributed_s": unattributed,
        "sft.load_matrix_s": s("sft.load_matrix"),
        "sft.words_calls": n("sft.words"),
        "sft.words_count": counters["sft.words_count"],
        "sft.words_s": s("sft.words"),
        "zlinalg.snf_calls": n("zlinalg.snf"),
        "zlinalg.snf_s": s("zlinalg.snf"),
        "zlinalg.snf_max_dim": maxima["zlinalg.snf_max_dim"],
        "zlinalg.snf_max_bits": maxima["zlinalg.snf_max_bits"],
        "zlinalg.cokernel_calls": n("zlinalg.cokernel"),
        "zlinalg.kernel_calls": n("zlinalg.kernel_basis"),
        "ktheory.k_groups_s": s("ktheory.k_groups"),
        "ktheory.duality_report_s": s("ktheory.duality_report"),
        "fock.basis_s": s("fock.basis"),
        "fock.basis_words": counters["fock.basis_words"],
        "fock.creation_calls": n("fock.creation"),
        "fock.creation_distinct": distinct,
        "fock.creation_reuse": _ratio(distinct, n("fock.creation")),
        "fock.matmul_calls": n("fock.matmul"),
        "fock.matmul_s": s("fock.matmul"),
        "fock.matmul_nnz": counters["fock.matmul_nnz"],
        "fock.add_calls": n("fock.add"),
        "fock.add_s": s("fock.add"),
        "fock.adjoint_calls": n("fock.adjoint"),
        "fock.adjoint_s": s("fock.adjoint"),
        "fock.scale_s": s("fock.scale"),
        "fock.verify_relation_s": s("fock.verify_relation"),
        "fock.relations_checked": n("fock.verify_relation"),
        "fock.defect_columns": counters["fock.defect_columns"],
        "fock.rotation_s": s("fock.rotation"),
        "ckalg.is_zero_calls": n("ckalg.is_zero"),
        "ckalg.is_zero_s": s("ckalg.is_zero"),
        "ckalg.is_zero_hit_ratio": _ratio(hits, hits + misses),
        "ckalg.multiply_calls": n("ckalg.multiply"),
        "ckalg.multiply_s": s("ckalg.multiply"),
        "ckalg.tensor_equal_calls": n("ckalg.tensor_equal"),
        "ckalg.tensor_equal_s": s("ckalg.tensor_equal"),
        "duality.hybrid_mul_calls": n("duality.hybrid_mul"),
        "duality.hybrid_mul_s": s("duality.hybrid_mul"),
        "duality.terms_out": counters["duality.terms_out"],
        "duality.prov_out": counters["duality.prov_out"],
        "duality.prov_per_term": _ratio(counters["duality.prov_out"], counters["duality.terms_out"]),
        "duality.defect_scan_s": s("duality.defect_scan"),
        "duality.defect_columns": counters["duality.defect_columns"],
        "duality.quotient_s": s("duality.quotient"),
    }


UNITS = {"_s": "s", "_bytes": "bytes", "_bits": "bits", "_ratio": "ratio",
         "_reuse": "ratio", "_per_term": "ratio", "_frac": "ratio"}


def unit(metric: str) -> str:
    return next((u for suffix, u in UNITS.items() if metric.endswith(suffix)), "count")


def accounting_problems(records) -> list:
    """Self times of all spans plus the unattributed rest must equal each
    invocation's wall time; the unattributed rest must not be negative."""
    problems = []
    for rec in records:
        d = rec["dump"]
        self_sum = sum(st[2] for st in d["stats"].values())
        rest = rec["wall"] - d["top"]
        if rest < 0 or abs(self_sum + rest - rec["wall"]) > 1e-6 + 1e-6 * rec["wall"]:
            problems.append(f"{rec['label']}: span self times do not account for the wall time")
    return problems


# ---------------------------------------------------------------------------
# predicted active/idle counters

_KT_ACTIVE = ("sft.load_matrix_s", "zlinalg.snf_s", "zlinalg.snf_max_dim", "zlinalg.snf_max_bits",
              "ktheory.k_groups_s", "ktheory.duality_report_s")
_FOCK_ACTIVE = ("sft.words_calls", "sft.words_count", "fock.basis_s", "fock.basis_words",
                "fock.creation_calls", "fock.matmul_calls", "fock.matmul_s", "fock.matmul_nnz",
                "fock.add_calls", "fock.adjoint_calls", "fock.scale_s", "fock.verify_relation_s",
                "fock.relations_checked", "fock.defect_columns", "fock.rotation_s")
_HYBRID_ACTIVE = ("fock.basis_s", "fock.creation_calls", "fock.matmul_calls", "fock.adjoint_calls",
                  "ckalg.is_zero_calls", "ckalg.is_zero_s", "ckalg.multiply_calls",
                  "ckalg.tensor_equal_calls", "duality.hybrid_mul_calls", "duality.hybrid_mul_s",
                  "duality.terms_out", "duality.prov_out", "duality.defect_scan_s",
                  "duality.defect_columns", "duality.quotient_s")

# workload -> (metrics that must be nonzero, metric prefixes or names that
# must read 0, metrics that must equal k x invocations)
PREDICTIONS = {
    "ktheory-sparse": (_KT_ACTIVE, ("sft.words", "fock.", "ckalg.", "duality."),
                       {"zlinalg.snf_calls": 10, "zlinalg.cokernel_calls": 6,
                        "zlinalg.kernel_calls": 4}),
    "fock-relations": (_FOCK_ACTIVE, ("zlinalg.", "ktheory.", "ckalg.", "duality."), {}),
    "hybrid-lemmas": (_HYBRID_ACTIVE, ("zlinalg.", "ktheory.", "fock.verify_relation_s",
                                       "fock.relations_checked", "fock.defect_columns",
                                       "fock.rotation_s"), {}),
}
PREDICTIONS["ktheory-dense"] = PREDICTIONS["ktheory-sparse"]


def self_check(workload: str, metrics: dict) -> list:
    active, idle, per_invocation = PREDICTIONS[workload]
    problems = [f"{m} predicted active but reads 0" for m in active if not metrics[m]]
    problems += [f"{m} predicted idle but reads {v}" for m, v in metrics.items()
                 if v and any(m.startswith(prefix) for prefix in idle)]
    for m, k in per_invocation.items():
        want = k * metrics["cli.invocations"]
        if metrics[m] != want:
            problems.append(f"{m} = {metrics[m]}, predicted {want}")
    return problems
