"""Per-layer metrics of one traced pass.

Each metric is named after the softtopo module (layer) it measures;
perfbench/README.md lists the end-to-end metric and workload each one is
expected to move. Times are in seconds of the traced pass. A `*_s`
metric over a function is the time inside its outermost spans, children
included; a `.self_s` metric is the layer's own time with every traced
child call taken out.
"""
from __future__ import annotations

from tracer import (CLAIM_SECTIONS, KERNEL_POINT, KERNEL_TABLE, LAYERS, SEMI_QUERY,
                    SEMI_SCAN)


def _is(*names):
    wanted = set(names)
    return lambda name: name in wanted


def _evaluation(name: str) -> bool:
    return name.startswith("claims.evaluate_claim.")


def _semi_scan(name: str) -> bool:
    return name.startswith("semi.SemiTables.") or name in {f"semi.{f}" for f in SEMI_SCAN}


def metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    s = tracer.summary()
    point = _is(*(f"kernels.{f}" for f in KERNEL_POINT))
    table = _is(*(f"kernels.{f}" for f in KERNEL_TABLE))
    parses = s.calls(_is("topology.parse_space"))

    out = {f"{layer}.self_s": s.self_s.get(layer, 0.0) for layer in LAYERS + ("bench",)}
    out.update({
        "explorer.suite_self_s": s.total_s(_is("explorer.run_claim_suite")) - s.under_s(
            lambda name: name == "claims.ctx_from_bundle" or _evaluation(name),
            "explorer.run_claim_suite"),
        "explorer.import_s": s.total_s(_is("explorer.import_corpus")),
        "explorer.export_s": s.total_s(_is("explorer.export_corpus")),
        "explorer.build_corpus_s": s.total_s(_is("explorer.build_corpus")),
        "explorer.witness_export_s": s.total_s(_is("explorer.export_witnesses")),
        "explorer.format_s": s.total_s(_is("explorer.format_suite")),
        "claims.ctx_builds": s.calls(_is("claims.ctx_from_bundle")),
        "claims.ctx_s": s.total_s(_is("claims.ctx_from_bundle")),
        "claims.distinct_ratio": len(tracer.encodings) / parses if parses else 0.0,
        "claims.evals": s.calls(_evaluation),
        "claims.eval_s": s.total_s(_evaluation),
        "analysis.axiom_reports": s.calls(_is("analysis.axiom_report")),
        "analysis.axiom_report_s": s.total_s(_is("analysis.axiom_report")),
        "analysis.semicompact_calls": s.calls(_is("analysis.is_semicompact")),
        "analysis.semicompact_s": s.total_s(_is("analysis.is_semicompact")),
        "maps.classify_map_calls": s.calls(_is("maps.classify_map")),
        "maps.classify_map_s": s.total_s(_is("maps.classify_map")),
        "semi.query_s": s.total_s(_is(*(f"semi.{f}" for f in SEMI_QUERY))),
        "semi.scan_s": s.total_s(_semi_scan),
        "kernels.point_calls": s.calls(point),
        "kernels.point_s": s.total_s(point),
        "kernels.table_calls": s.calls(table),
        "kernels.table_s": s.total_s(table),
        "kernels.check_family_s": s.total_s(_is("kernels.check_family")),
        "kernels.min_cover_s": s.total_s(_is("kernels.min_cover")),
        "kernels.open_scans": tracer.counts["kernels.open_scans"],
        "topology.parses": parses,
        "topology.parse_s": s.total_s(_is("topology.parse_space")),
        "topology.from_subbasis_s": s.total_s(_is("topology.from_subbasis")),
        "core.softset_allocs": tracer.counts["core.softset_allocs"],
        "prng.draws": tracer.counts["prng.draws"],
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.covered_ratio": sum(s.self_s.get(layer, 0.0) for layer in LAYERS) / traced_wall,
        "trace.spans": s.spans,
    })
    for sec in CLAIM_SECTIONS:
        out[f"claims.eval_s.{sec}"] = s.total_s(_is(f"claims.evaluate_claim.{sec}"))
    return out
