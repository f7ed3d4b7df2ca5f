"""Per-layer tracing of sgeo, installed from outside the package.

Every plain function defined in a layer module is replaced, in every
sgeo module that holds a reference to it, by a wrapper that records a
span: its layer, its duration and the time its child spans took.  A
layer's self time is the sum over its spans of duration minus child
time.  Methods of ``Graph`` and of the result classes are not wrapped,
so their time counts to the layer that calls them.

The decision search and the pair cache are private (``verify._search``
and ``verify._PairCache.get``); they are wrapped by name, and metrics of
a name that no longer exists are left out of the report rather than
reported as zero.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("cli", "solver", "construct", "verify", "formulas", "graph")

# Functions whose calls and time are reported together.  A group's time
# counts only its outermost calls, so nested calls are not counted twice.
GROUPS = {
    "graph.distances_from": "graph.bfs",
    "graph.diameter": "graph.diameter",
    "graph.count_geodesics": "graph.geodesics",
    "graph.enumerate_geodesics": "graph.geodesics",
    "graph.from_edge_list": "graph.parse",
    "verify.verify_witness": "verify.witness",
    "verify._search": "verify.search",
    "verify._PairCache.get": "verify.pair_cache",
    "solver.sg_exact": "solver.exact",
    "construct.build_bipartite_witness": "construct.build",
    "construct.build_crown_witness": "construct.build",
    "construct.build_hypercube_basic": "construct.build",
    "construct.build_hypercube_improved": "construct.build",
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [layer stats, child seconds]
        # per layer: [self seconds, entries from another layer, entry seconds]
        self.layers = {name: [0.0, 0, 0.0] for name in LAYERS}
        self.functions: dict[str, list] = {}  # name -> [calls, seconds]
        self.groups: dict[str, list] = {}  # name -> [calls, seconds, depth]
        self.paths = 0  # paths returned by enumerate_geodesics
        self.hits = 0  # _search calls that found a witness
        self.builds = 0  # pair-cache gets that enumerated geodesics
        self.built_paths = 0
        self.kept_paths = 0

    def wrap(self, fn, layer: str, name: str):
        stack = self.stack
        clock = time.perf_counter
        lstats = self.layers[layer]
        fstats = self.functions.setdefault(name, [0, 0.0])
        group = GROUPS.get(name)
        gstats = self.groups.setdefault(group, [0, 0.0, 0]) if group else [0, 0.0, 0]
        count = {
            "graph.enumerate_geodesics": self._count_paths,
            "verify._search": self._count_hit,
            "verify._PairCache.get": self._count_build,
        }.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [lstats, 0.0]
            stack.append(span)
            gstats[2] += 1
            paths_before = self.paths
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                lstats[0] += dt - span[1]
                if parent is None:
                    lstats[1] += 1
                    lstats[2] += dt
                else:
                    parent[1] += dt
                    if parent[0] is not lstats:
                        lstats[1] += 1
                        lstats[2] += dt
                fstats[0] += 1
                fstats[1] += dt
                gstats[0] += 1
                gstats[2] -= 1
                if not gstats[2]:
                    gstats[1] += dt
            if count is not None:
                count(result, self.paths - paths_before)
            return result

        return traced

    def _count_paths(self, result, _):
        self.paths += len(result)

    def _count_hit(self, result, _):
        self.hits += result is not None

    def _count_build(self, result, new_paths):
        if new_paths:
            # The cache entry is (kept paths, masks, forced, union).
            self.builds += 1
            self.built_paths += new_paths
            self.kept_paths += len(result[0])

    def install(self, modules: dict) -> None:
        """Wrap the functions of ``modules`` (layer name -> module)."""
        replace = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    replace[obj] = self.wrap(obj, layer, f"{layer}.{name}")
        cache_cls = getattr(modules["verify"], "_PairCache", None)
        if cache_cls is not None and inspect.isfunction(getattr(cache_cls, "get", None)):
            cache_cls.get = self.wrap(cache_cls.get, "verify", "verify._PairCache.get")
        for key, mod in list(sys.modules.items()):
            if key == "sgeo" or key.startswith("sgeo."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in replace:
                        setattr(mod, name, replace[obj])

    def metrics(self, rounds: int, out_bytes: int) -> dict:
        """Per-layer metrics per round of the workload.

        A metric is left out when a function it is taken from is missing.
        A ratio whose base is empty reads 0.
        """
        def per_round(x):
            return x // rounds if isinstance(x, int) and not x % rounds else x / rounds

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}

        def put(name, value, unit, *needs):
            if all(n in self.functions for n in needs):
                out[name] = {"value": value, "unit": unit}

        def calls(group):
            return per_round(self.groups.get(group, [0])[0])

        def secs(group):
            return per_round(self.groups.get(group, [0, 0.0])[1])

        bfs = "graph.distances_from"
        geo = ("graph.count_geodesics", "graph.enumerate_geodesics")
        search = "verify._search"
        cache = ("verify._PairCache.get", "graph.enumerate_geodesics")
        witness = "verify.verify_witness"
        put("graph.bfs.calls", calls("graph.bfs"), "count", bfs)
        put("graph.bfs.s", secs("graph.bfs"), "s", bfs)
        put("graph.diameter.calls", calls("graph.diameter"), "count", "graph.diameter")
        put("graph.geodesics.calls", calls("graph.geodesics"), "count", *geo)
        put("graph.geodesics.paths", per_round(self.paths), "count", *geo)
        put("graph.geodesics.s", secs("graph.geodesics"), "s", *geo)
        put("graph.parse.s", secs("graph.parse"), "s", "graph.from_edge_list")
        put("graph.self_s", per_round(self.layers["graph"][0]), "s")
        put("verify.witness.calls", calls("verify.witness"), "count", witness)
        put("verify.witness.s", secs("verify.witness"), "s", witness)
        put("verify.search.calls", calls("verify.search"), "count", search)
        put("verify.search.s", secs("verify.search"), "s", search)
        put("verify.search.hit_ratio",
            ratio(self.hits, self.groups.get("verify.search", [0])[0]), "ratio", search)
        put("verify.pair_cache.builds", per_round(self.builds), "count", *cache)
        put("verify.pair_cache.s", secs("verify.pair_cache"), "s", *cache)
        put("verify.pair_cache.kept_ratio",
            ratio(self.kept_paths, self.built_paths), "ratio", *cache)
        put("verify.self_s", per_round(self.layers["verify"][0]), "s")
        put("solver.exact.calls", calls("solver.exact"), "count", "solver.sg_exact")
        put("solver.self_s", per_round(self.layers["solver"][0]), "s")
        put("construct.build.calls", calls("construct.build"), "count")
        put("construct.self_s", per_round(self.layers["construct"][0]), "s")
        put("formulas.calls", per_round(self.layers["formulas"][1]), "count")
        put("formulas.s", per_round(self.layers["formulas"][2]), "s")
        put("cli.self_s", per_round(self.layers["cli"][0]), "s")
        put("cli.out_bytes", per_round(out_bytes), "bytes")
        return out

    def dump(self) -> dict:
        """Totals per wrapped function and per layer, for the trace file."""
        return {
            "functions": {k: {"calls": c, "s": s} for k, (c, s) in sorted(self.functions.items())},
            "layers": {k: {"self_s": s, "entries": e, "entry_s": es}
                       for k, (s, e, es) in self.layers.items()},
        }
