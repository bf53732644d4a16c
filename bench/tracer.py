"""Per-layer tracing of ordlat from outside the package.

`Tracer.install` replaces each listed function or method with a wrapper,
at every name a caller looks it up by: the defining module's global (so
recursive and same-module calls are seen), every module that imported the
object by name, and the class attribute for methods (both names when a
class binds one function twice, as `Element.__rmul__ = __mul__` does).

Each wrapper keeps accumulators per name (calls, inclusive seconds, self
seconds) from a stack of open calls.  Self time is inclusive time minus the
gross time of wrapped calls made inside, so the tracer's own bookkeeping in
a child is charged to nobody.  Full spans (id, name, start, end, parent,
op id) are kept only for calls at most SPAN_DEPTH levels below an
operation, which bounds memory however many times `compare` runs.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List

import ordlat.cli
import ordlat.element
import ordlat.freeness
import ordlat.group
import ordlat.intlinalg
import ordlat.ordinal
import ordlat.presets
import ordlat.serialize
import ordlat.space

SPAN_DEPTH = 2

# layer -> (module, dotted names); a dotted name is Class.method
TRACED = {
    "ordinal": (
        ordlat.ordinal,
        "compare add successor classify last_exponent floor_rank from_int "
        "omega_power format_ordinal parse_ordinal Ordinal.__post_init__ "
        "Ordinal.__eq__ Ordinal.__hash__ Ordinal.__lt__ Ordinal.key "
        "Ordinal.depth Ordinal.is_nat Ordinal.as_nat",
    ),
    "space": (
        ordlat.space,
        "ScatteredSpace.contains ScatteredSpace.cb_rank "
        "ScatteredSpace.space_rank ScatteredSpace.in_derived_set "
        "ScatteredSpace.is_limit_point ScatteredSpace.isolating_block "
        "ScatteredSpace.slice_is_finite ScatteredSpace.rank_slice "
        "ClopenBlock.__post_init__ ClopenBlock.contains",
    ),
    "element": (
        ordlat.element,
        "_canonical _from_values is_semibasic bounded_ratio_witness "
        "format_element parse_element parse_weight dominance_monotone_from "
        "WeightFn.value Ladder.point Ladder.index_of Ladder.weight "
        "Domain.ladder Domain.locate Domain.target_ladder Domain.zero "
        "Domain.e Domain.tail Element.__eq__ Element.value Element.tails_on "
        "Element.settle_index Element.residue_at Element.tail_start "
        "Element.mu Element.support Element.same_support Element.cb "
        "Element.is_nonneg Element.meet Element.join Element.plus_part "
        "Element.minus_part Element.__add__ Element.__sub__ "
        "Element.__neg__ Element.__mul__",
    ),
    "intlinalg": (
        ordlat.intlinalg,
        "hnf_rows row_rank solve_in_rowspace lattice_basis",
    ),
    "group": (
        ordlat.group,
        "member_decompose span_qx_decompose semibasic_construct "
        "kernel_basis_certificate finite_prime_test residue_index_at "
        "CoordinateSystem.for_elements CoordinateSystem.coords "
        "Presentation.generator KernelBasisCertificate.verify",
    ),
    "freeness": (
        ordlat.freeness,
        "verify_staircase construct_staircase free_from_bounded_torsion "
        "build_chain_successor build_chain_limit multi_prime_compose "
        "restrict_element chain_torsion_bound smooth_chain_check "
        "FreenessCertificate.basis_elements CheckReport.explain",
    ),
    "serialize": (
        ordlat.serialize,
        "dumps element_to_json element_from_json presentation_to_json "
        "presentation_from_json certificate_to_json certificate_from_json",
    ),
    "cli": (ordlat.cli, "main build_parser"),
    # presets is traced only so its time is not charged to cli
    "presets": (ordlat.presets, "load"),
}

LAYERS = tuple(TRACED)


class Tracer:
    def __init__(self) -> None:
        self.stack: List[list] = [[0.0, None]]  # [child gross s, span id]
        self.acc: Dict[str, list] = {}  # name -> [calls, incl s, self s]
        self.layer_of: Dict[str, str] = {}
        self.spans: List[tuple] = []
        self.op_id = -1
        self.next_span = 0
        # counters measured where the work happens
        self.hnf_cells = 0
        self.hnf_max_bits = 0
        self.member_hits = 0
        self.dump_bytes = 0

    # -- operations --

    def begin_op(self, op_id: int, name: str) -> None:
        self.op_id = op_id
        self.stack[-1] = [0.0, self.next_span]
        self.next_span += 1
        self._op = (name, time.perf_counter())

    def end_op(self) -> None:
        end = time.perf_counter()
        name, start = self._op
        self.spans.append((self.stack[-1][1], name, start, end, None, self.op_id))
        self.stack[-1] = [0.0, None]

    # -- wrapping --

    def wrap(self, name: str, layer: str, fn: Callable, post=None) -> Callable:
        acc = self.acc.setdefault(name, [0, 0.0, 0.0])
        self.layer_of[name] = layer
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            t0 = clock()
            parent = stack[-1]
            span = None
            if parent[1] is not None and len(stack) <= SPAN_DEPTH:
                span = tracer.next_span
                tracer.next_span += 1
            frame = [0.0, span]
            stack.append(frame)
            t1 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                incl = t2 - t1
                acc[0] += 1
                acc[1] += incl
                acc[2] += incl - frame[0]
                if span is not None:
                    spans.append((span, name, t1, t2, parent[1], tracer.op_id))
                parent[0] += clock() - t0
            if post is not None:
                t3 = clock()
                post(args, out)
                parent[0] += clock() - t3
            return out

        return traced

    def install(self, extra_modules=()) -> None:
        """Wrap every traced name in ordlat and in the given modules."""
        scan = [
            m
            for n, m in sys.modules.items()
            if n == "ordlat" or n.startswith("ordlat.")
        ] + list(extra_modules)
        posts = {
            "intlinalg.hnf_rows": self._post_hnf,
            "group.member_decompose": self._post_member,
            "serialize.dumps": self._post_dumps,
        }
        for layer, (module, names) in TRACED.items():
            for dotted in names.split():
                key = f"{layer}.{dotted}"
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    is_cm = isinstance(raw, classmethod)
                    fn = raw.__func__ if is_cm else raw
                    w = self.wrap(key, layer, fn, posts.get(key))
                    for a, v in list(cls.__dict__.items()):
                        if v is raw:
                            setattr(cls, a, classmethod(w) if is_cm else w)
                else:
                    fn = getattr(module, dotted)
                    w = self.wrap(key, layer, fn, posts.get(key))
                    for m in scan:
                        for a, v in list(vars(m).items()):
                            if v is fn:
                                setattr(m, a, w)

    def _post_hnf(self, args, res) -> None:
        rows = args[0]
        self.hnf_cells += len(rows) * (len(rows[0]) if rows else 0)
        bits = self.hnf_max_bits
        for block in (rows, res.h, res.u):
            for row in block:
                for x in row:
                    b = abs(x).bit_length()
                    if b > bits:
                        bits = b
        self.hnf_max_bits = bits

    def _post_member(self, args, res) -> None:
        if res is not None:
            self.member_hits += 1

    def _post_dumps(self, args, res) -> None:
        self.dump_bytes += len(res.encode())

    # -- results --

    def _sum(self, names, field: int) -> float:
        return sum(self.acc[n][field] for n in names)

    def metrics(self) -> Dict[str, float]:
        by_layer: Dict[str, List[str]] = {layer: [] for layer in LAYERS}
        for name, layer in self.layer_of.items():
            by_layer[layer].append(name)
        out: Dict[str, float] = {}
        for layer in LAYERS:
            if layer == "presets":
                continue
            out[f"{layer}.calls"] = self._sum(by_layer[layer], 0)
            out[f"{layer}.self_s"] = self._sum(by_layer[layer], 2)

        def calls(*names):
            return self._sum(names, 0)

        def self_s(*names):
            return self._sum(names, 2)

        def incl_s(*names):
            return self._sum(names, 1)

        arith = (
            "element.Element.__add__",
            "element.Element.__sub__",
            "element.Element.__neg__",
            "element.Element.__mul__",
        )
        build = [n for n in by_layer["freeness"] if n != "freeness.smooth_chain_check"]
        member = self.acc["group.member_decompose"]
        out.update(
            {
                "element.meet.calls": calls("element.Element.meet"),
                "element.meet.self_s": self_s("element.Element.meet"),
                "element.add.calls": calls(*arith),
                "element.add.self_s": self_s(*arith),
                "element.value.calls": calls("element.Element.value"),
                "element.value.self_s": self_s("element.Element.value"),
                "element.canonical.calls": calls("element._canonical"),
                "ordinal.compare.calls": calls("ordinal.compare"),
                "ordinal.hash.calls": calls("ordinal.Ordinal.__hash__"),
                "intlinalg.hnf_rows.calls": calls("intlinalg.hnf_rows"),
                "intlinalg.hnf_rows.cells": self.hnf_cells,
                "intlinalg.hnf_rows.max_bits": self.hnf_max_bits,
                "intlinalg.hnf_rows.self_s": self_s("intlinalg.hnf_rows"),
                "group.member_decompose.calls": member[0],
                "group.member_decompose.self_s": member[2],
                "group.member_decompose.hit_ratio": (
                    self.member_hits / member[0] if member[0] else 0.0
                ),
                "group.span_qx_decompose.self_s": self_s("group.span_qx_decompose"),
                "space.cb_rank.calls": calls("space.ScatteredSpace.cb_rank"),
                "freeness.build.self_s": self_s(*build),
                "freeness.check.self_s": self_s("freeness.smooth_chain_check"),
                "serialize.bytes": self.dump_bytes,
                "serialize.dump_s": incl_s(
                    "serialize.certificate_to_json", "serialize.dumps"
                ),
                "serialize.load_s": incl_s("serialize.certificate_from_json"),
            }
        )
        return out

    def span_records(self) -> dict:
        return {
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
        }
