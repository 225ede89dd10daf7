"""Which statefuzz functions the traced run wraps, and the per-layer
metrics derived from their spans.

Every public module-level function and every public method of a public
class in the eight layers is wrapped, under the span name
``<layer>.<qualified name>``.  A function bound under another name in a
second module (``from .alphabet import encode`` in ``proxy``) is patched
there too, because that is where it is called.  A generator function's span
covers only the call that creates the generator; iterating it counts as
self time of the consumer (``MealyMachine.traversal_edges`` in
``fuzzer.sdfs_extract``).
"""
from __future__ import annotations

import importlib
import inspect

from tracer import Tracer, percentile, tail_percentile

LAYERS = ("alphabet", "mealy", "learner", "proxy", "sulsim", "fuzzer",
          "detector", "cli")

def _count_ticks(tracer, args, kwargs, result, seconds):
    tracer.count("sulsim.virtual_ticks", args[1] if len(args) > 1 else kwargs.get("n", 1))


def _count_suite_words(tracer, args, kwargs, result, seconds):
    tracer.count("learner.suite_words", len(result))


def _count_frame_bytes(tracer, args, kwargs, result, seconds):
    tracer.count("alphabet.frame.bytes", len(result))


def _count_finding(tracer, args, kwargs, result, seconds):
    if result is not None:
        tracer.count("detector.findings")


def _split_exchange(tracer, args, kwargs, result, seconds):
    tracer.sample("proxy.exchange.frames" if result else "proxy.exchange.empty", seconds)


PROBES = {
    "sulsim.ClusterHandle.tick": {"probe": _count_ticks},
    "learner.wmethod_suite": {"probe": _count_suite_words},
    "alphabet.frame_encode": {"probe": _count_frame_bytes},
    "detector.Detector.evaluate": {"probe": _count_finding},
    "proxy.TcpTransport.exchange": {"probe": _split_exchange, "sample": True},
    "proxy.ClusterProxy.query": {"sample": True},
}


def public_callables(module):
    """``(owner, attribute, span name)`` for the module's public functions
    and the public methods of its public classes."""
    layer = module.__name__.rsplit(".", 1)[-1]
    found = []
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            found.append((module, attr, f"{layer}.{attr}"))
        elif inspect.isclass(value):
            for method, raw in vars(value).items():
                if method.startswith("_"):
                    continue
                if inspect.isfunction(raw) or isinstance(raw, (staticmethod, classmethod)):
                    found.append((value, method, f"{layer}.{attr}.{method}"))
    return found


def install(tracer: Tracer) -> dict:
    """Patch every traced callable, at its definition and at each alias.

    Returns the dict that collects each ``MembershipOracle`` seen, by id, so
    its cache counters can be read once the run is over.
    """
    modules = [importlib.import_module(f"statefuzz.{layer}") for layer in LAYERS]
    oracles = {}

    def track_oracle(tracer, args, kwargs, result, seconds):
        oracles[id(args[0])] = args[0]

    probes = {**PROBES, "learner.MembershipOracle.query": {"probe": track_oracle}}
    for module in modules:
        for owner, attr, name in public_callables(module):
            original = vars(owner)[attr]
            options = probes.get(name, {})
            tracer.patch(owner, attr, name, **options)
            if owner is not module:
                continue
            for other in modules:
                for alias, value in list(vars(other).items()):
                    if other is not module and value is original:
                        tracer.patch(other, alias, name, **options)
    return oracles


def _ms(samples, pct):
    return percentile(samples, pct) * 1e3 if samples else 0.0


def layer_metrics(tracer: Tracer, oracles: dict) -> dict:
    """Per-layer metrics, ``name -> (value, unit)``, from a finished trace."""
    totals = tracer.totals()
    counts = tracer.counts()
    samples = tracer.samples()

    def calls(*names):
        return sum(totals[n].calls for n in names if n in totals)

    def self_s(*names):
        return sum(totals[n].self_s for n in names if n in totals)

    def total_s(*names):
        return sum(totals[n].total_s for n in names if n in totals)

    def prefixed(prefix):
        return [n for n in totals if n.startswith(prefix)]

    suite_fns = ("learner.wmethod_suite", "learner.wmethod_counterexample",
                 "learner.distinguishing_suffixes", "learner.transition_cover")
    oracle_query = "learner.MembershipOracle.query"
    oracle_calls = calls(oracle_query)
    cache_hits = sum(o.cache_hits for o in oracles.values())
    evaluations = calls("detector.Detector.evaluate")
    query = samples.get("proxy.ClusterProxy.query", [])
    query_tail = tail_percentile(len(query))
    exchanges = samples.get("proxy.TcpTransport.exchange", [])
    exchange_tail = tail_percentile(len(exchanges))
    frame_fns = ("alphabet.frame_encode", "alphabet.read_frame")
    transports = ("proxy.InProcessTransport", "proxy.TcpTransport")

    m = {
        "learner.rounds": (calls("learner.ObservationTable.hypothesis"), "count"),
        "learner.queries": (oracle_calls, "count"),
        "learner.cache_hit_ratio": (cache_hits / oracle_calls if oracle_calls else 0.0,
                                    "ratio"),
        "learner.suite_words": (counts.get("learner.suite_words", 0), "count"),
        "learner.table_s": (self_s(*(n for n in prefixed("learner.")
                                     if n not in suite_fns and n != oracle_query)), "s"),
        "learner.oracle.self_s": (self_s(oracle_query), "s"),
        "learner.suite_s": (total_s("learner.wmethod_suite"), "s"),
        "learner.eq_s": (total_s("learner.wmethod_counterexample"), "s"),
        "mealy.run_outputs.calls": (calls("mealy.MealyMachine.run_outputs"), "count"),
        "mealy.run_outputs.self_s": (self_s("mealy.MealyMachine.run_outputs"), "s"),
        "mealy.minimize.self_s": (self_s("mealy.minimize"), "s"),
        "proxy.resets": (calls("proxy.ClusterProxy.reset_session"), "count"),
        "proxy.reset.self_s": (self_s("proxy.ClusterProxy.reset_session",
                                      *(f"{t}.reset" for t in transports)), "s"),
        "proxy.observe.calls": (calls(*(f"{t}.observe" for t in transports)), "count"),
        "proxy.observe.self_s": (self_s("proxy.ClusterProxy.observe",
                                        *(f"{t}.observe" for t in transports)), "s"),
        "proxy.symbols": (calls("proxy.ClusterProxy.send_symbol"), "count"),
        "proxy.send_symbol.self_s": (self_s("proxy.ClusterProxy.send_symbol"), "s"),
        "proxy.keepalives": (calls(*(f"{t}.inject" for t in transports)), "count"),
        "proxy.query_ms.p50": (_ms(query, 50), "ms"),
        "proxy.query_ms.tail": (_ms(query, query_tail or 50), "ms"),
        "proxy.query_ms.tail_pct": (query_tail or 0.0, "%"),
        "proxy.exchange_ms.p50": (_ms(exchanges, 50), "ms"),
        "proxy.exchange_ms.tail": (_ms(exchanges, exchange_tail or 50), "ms"),
        "proxy.exchange_ms.frames_p50": (_ms(samples.get("proxy.exchange.frames", []), 50),
                                         "ms"),
        "proxy.exchange_ms.empty_p50": (_ms(samples.get("proxy.exchange.empty", []), 50),
                                        "ms"),
        "proxy.exchange.frames": (len(samples.get("proxy.exchange.frames", [])), "count"),
        "proxy.exchange.empty": (len(samples.get("proxy.exchange.empty", [])), "count"),
        "sulsim.reset.calls": (calls("sulsim.ClusterHandle.reset"), "count"),
        "sulsim.reset.self_s": (self_s("sulsim.ClusterHandle.reset",
                                       "sulsim.ClusterHandle.run_until_steady"), "s"),
        "sulsim.deliver.calls": (calls("sulsim.ClusterHandle.deliver"), "count"),
        "sulsim.deliver.self_s": (self_s("sulsim.ClusterHandle.deliver"), "s"),
        "sulsim.tick.self_s": (self_s("sulsim.ClusterHandle.tick"), "s"),
        "sulsim.virtual_ticks": (counts.get("sulsim.virtual_ticks", 0), "count"),
        "sulsim.observe.self_s": (self_s("sulsim.ClusterHandle.observe"), "s"),
        "alphabet.encode.calls": (calls("alphabet.encode"), "count"),
        "alphabet.encode.self_s": (self_s("alphabet.encode"), "s"),
        "alphabet.decode.calls": (calls("alphabet.decode"), "count"),
        "alphabet.decode.self_s": (self_s("alphabet.decode"), "s"),
        "alphabet.canonical_output.self_s": (self_s("alphabet.canonical_output"), "s"),
        "alphabet.frame.count": (calls("alphabet.frame_encode"), "count"),
        "alphabet.frame.bytes": (counts.get("alphabet.frame.bytes", 0), "B"),
        "alphabet.frame.self_s": (self_s(*frame_fns), "s"),
        "fuzzer.mutate.self_s": (self_s("fuzzer.mutate"), "s"),
        "detector.evaluate.calls": (evaluations, "count"),
        "detector.evaluate.self_s": (self_s("detector.Detector.evaluate"), "s"),
        "detector.finding_ratio": (counts.get("detector.findings", 0) / evaluations
                                   if evaluations else 0.0, "ratio"),
        "cli.serialize_s": (total_s("fuzzer.CampaignReport.to_json", "cli.case_document",
                                    "mealy.MealyMachine.to_json",
                                    "mealy.MealyMachine.to_dot"), "s"),
    }
    return m
