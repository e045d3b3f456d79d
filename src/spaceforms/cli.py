"""Command-line front end.

Deterministic output only: identical invocations produce byte-identical
documents (no timestamps, fixed orderings).  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 internal contract violation.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import groups as groups_mod
from . import induction, mckay, spectra, theorems
from .characters import TableDerivationError, character_table, normalize_irrep_name
from .exactnum import format_value
from .groups import SCHEMA, ContractViolation, FiniteGroup


class UsageError(ValueError):
    pass


def resolve_group(selector: str, cache: str | None = None) -> FiniteGroup:
    sel = selector.strip().upper().replace("′", "'")
    n = groups_mod.polyhedral_n(sel)
    if n is not None:
        name = groups_mod.GROUP_NAMES[n][0]
        if not cache:
            return groups_mod.binary_polyhedral(name)
        path = os.path.join(cache, f"{name}.json")
        try:
            if os.path.exists(path):
                try:
                    G = groups_mod.load_group(path)
                except (ValueError, LookupError, ContractViolation) as exc:
                    raise UsageError(f"cache file {path!r}: {exc}") from None
            else:
                G = groups_mod.binary_polyhedral(name)
                os.makedirs(cache, exist_ok=True)
                groups_mod.save_group(G, path)
        except OSError as exc:
            raise UsageError(f"cache {cache!r}: {exc}") from None
        if G.name != name or G.presentation != (2, 3, n):
            raise UsageError(f"cache file {path!r} holds {G.name} with "
                             f"presentation {G.presentation}, not {name}")
        return G
    if sel.startswith("Z"):
        try:
            q = int(sel[1:])
        except ValueError:
            raise UsageError(f"bad cyclic selector {selector!r}") from None
        return groups_mod.cyclic_group(q)
    raise UsageError(f"unknown group selector {selector!r} "
                     "(expected 2T, 2O, 2I, T', O', Y' or Z<q>)")


def emit(doc, fmt: str, text_renderer) -> None:
    if fmt == "json":
        import json    # on use: a text command does not load it
        print(json.dumps(doc, indent=2, allow_nan=False))
    else:
        print(text_renderer())


# -- subcommands --------------------------------------------------------


def cmd_group(args) -> int:
    G = resolve_group(args.selector, args.cache)
    if args.what == "order":
        doc = {"schema": SCHEMA, "kind": "group_order", "group": G.name,
               "order": len(G)}
        emit(doc, args.format, lambda: str(len(G)))
        return 0
    if args.what == "classes":
        rows = [{"label": lab, "size": size, "element_order": G.orders[rep]}
                for lab, size, rep in zip(G.class_labels, G.class_sizes,
                                          G.class_reps)]
        doc = {"schema": SCHEMA, "kind": "classes", "group": G.name,
               "count": G.num_classes, "classes": rows,
               "aliases": dict(sorted(G.class_aliases.items()))}
        lines = [f"{G.name}: {G.num_classes} conjugacy classes"]
        lines += [f"  [{r['label']}]  size {r['size']:3d}  "
                  f"element order {r['element_order']}" for r in rows]
        if G.class_aliases:
            alias = ", ".join(f"[{a}]=[{p}]" for a, p in doc["aliases"].items())
            lines.append(f"  fused labels: {alias}")
        emit(doc, args.format, lambda: "\n".join(lines))
        return 0
    table = character_table(G)
    emit(table.to_json(), args.format, table.to_text)
    return 0


def cmd_induce(args) -> int:
    G = resolve_group(args.selector, args.cache)
    if args.gen is None:
        if args.r is not None:
            raise UsageError("--r needs --gen")
        if G.num_classes == len(G):
            raise UsageError("induction columns need a polyhedral group")
        doc = {
            "schema": SCHEMA, "kind": "induction_tables", "group": G.name,
            "columns": {gen: [{"twist": row.twist,
                               "constituents": row.as_dict()}
                              for row in induction.induction_table(G, gen)]
                        for gen in ("T", "S", "R", "RST")},
        }
        emit(doc, args.format, lambda: induction.render_all_columns(G))
        return 0
    if args.gen not in G.generators:
        raise UsageError(f"{G.name} has no generator {args.gen!r}")
    q = G.cyclic_subgroup(args.gen).order
    if args.r is None:
        rows = induction.induction_table(G, args.gen)
    else:
        if not 0 <= args.r < q:
            raise UsageError(f"twist {args.r} out of range 0..{q - 1} "
                             f"for <{args.gen}>")
        rows = [induction.induce_twist(G, args.gen, args.r)]
    doc = {
        "schema": SCHEMA, "kind": "induction", "group": G.name,
        "generator": args.gen, "subgroup_order": q,
        "rows": [{"twist": row.twist, "constituents": row.as_dict()}
                 for row in rows],
    }
    emit(doc, args.format,
         lambda: "\n".join(f"{row.twist}^({args.gen}) = {row.render()}"
                           for row in rows))
    return 0


def _parse_twist(args, G: FiniteGroup):
    if args.irrep is not None and args.r is not None:
        raise UsageError("give either --r or --irrep, not both")
    if args.gen is not None:
        if args.gen not in G.generators:
            raise UsageError(f"{G.name} has no generator {args.gen!r}")
        H = G.cyclic_subgroup(args.gen)
        if args.irrep is not None:
            raise UsageError("lens twists on a subgroup use --r")
        return H, (args.r or 0)
    if args.irrep is not None:
        return G, normalize_irrep_name(args.irrep)
    return G, (args.r if args.r is not None else
               (0 if G.num_classes == len(G) else "1"))


def _check_nmax(args) -> None:
    if args.nmax < 0:
        raise UsageError(f"--nmax must be >= 0, got {args.nmax}")


def cmd_spectrum(args) -> int:
    _check_nmax(args)
    if args.param is not None and not math.isfinite(args.param):
        raise UsageError(f"--param must be finite, got {args.param}")
    if args.weight != "none" and args.format == "csv":
        raise UsageError("--format csv holds the series only; "
                         f"--weight {args.weight} needs text or json")
    if args.weight == "counting" and args.param is not None:
        # the last level with n(n+2) <= lambda is isqrt(floor(lambda) + 1) - 1
        need = math.isqrt(max(math.floor(args.param) + 1, 0)) - 1
        if args.nmax < need:
            raise UsageError(f"counting to eigenvalue {args.param} needs levels "
                             f"up to {need}: pass --nmax {need} or more")
    G = resolve_group(args.selector, args.cache)
    target, twist = _parse_twist(args, G)
    series = spectra.degeneracy_series(target, twist, args.nmax)
    weighted = None
    if args.weight != "none":
        if args.weight != "raw" and args.param is None:
            raise UsageError(f"--weight {args.weight} requires --param")
        W = spectra.SpectralWeight     # the parser's choices name its constructors
        w = W.raw() if args.weight == "raw" else getattr(W, args.weight)(args.param)
        weighted = spectra.spectral_sum(series, w)
    if args.format == "csv":
        sys.stdout.write(series.to_csv())
        return 0
    doc = series.to_json()
    if weighted is not None:
        bound = weighted.truncation_bound
        doc["weighted_sum"] = {"kind": args.weight, "param": args.param,
                               "value": weighted.value,
                               # null, not Infinity, when no finite bound exists
                               "truncation_bound": (bound if bound is not None
                                                    and math.isfinite(bound)
                                                    else None)}

    def text():
        lines = [f"twist {series.twist.describe()}, levels 0..{series.n_max}"]
        lines += [f"  n={n:3d}  lambda={n * (n + 2):5d}  d={d}"
                  for n, d in enumerate(series.entries) if d or n <= 2]
        if weighted is not None:
            lines.append(f"  {args.weight} sum = {weighted.value!r}"
                         + (f" (tail bound {weighted.truncation_bound:.3e})"
                            if weighted.truncation_bound is not None else ""))
        return "\n".join(lines)

    emit(doc, args.format, text)
    return 0


def cmd_torsion(args) -> int:
    lt = spectra.lens_torsion(args.q, args.r)
    doc = {"schema": SCHEMA, "kind": "lens_torsion", "q": lt.q, "r": lt.r,
           "value": lt.value, "log": lt.log_value,
           "exact": format_value(lt.exact)}
    emit(doc, args.format,
         lambda: f"torsion(q={lt.q}, r={lt.r}) = {format_value(lt.exact)}"
                 f" = {lt.value!r} (log {lt.log_value!r})")
    return 0


def cmd_mckay(args) -> int:
    G = resolve_group(args.selector, args.cache)
    if args.class_version:
        graph = mckay.compactified_diagram(G)
        lines = [f"{G.name} compactified class diagram: poles [E], [-E]"]
        for gen, arc in graph.arcs.items():
            chain = " - ".join(["[E]"] + [f"[{lab}]" for lab in arc] + ["[-E]"])
            lines.append(f"  {gen}-arc ({len(arc)} internal): {chain}"
                         f"  (reflection: {graph.reflection[gen]})")
    else:
        graph = mckay.mckay_graph(G)
        lines = [f"{G.name} McKay graph: {graph.ade_name}"]
        k = len(graph.nodes)
        for i in range(k):
            nbrs = [f"{graph.nodes[j]}" + (f" x{graph.adjacency[i][j]}"
                                           if graph.adjacency[i][j] > 1 else "")
                    for j in range(k) if graph.adjacency[i][j]]
            lines.append(f"  {graph.nodes[i]} (mark {graph.marks[i]}): "
                         + ", ".join(nbrs))
    if args.format == "dot":
        sys.stdout.write(mckay.export_dot(graph))
    else:
        emit(graph.to_json(), args.format, lambda: "\n".join(lines))
    return 0


# -- verify -------------------------------------------------------------


def _verify_items(which: str, n_max: int, cache: str | None):
    """Run one registry item, or all in order, resolving each group they
    read once.  The groups are outside input; past them, a `ValueError` or
    `LookupError` raised inside an item is a fault of the library."""
    items = theorems.VERIFY_ITEMS
    chosen = list(items.items()) if which == "all" else [(which, items[which])]
    selectors = dict.fromkeys(sel for _, (sels, _) in chosen for sel in sels)
    groups = {sel: resolve_group(sel, cache) for sel in selectors}
    results = []
    for name, (sels, check) in chosen:
        try:
            results += check([groups[sel] for sel in sels], n_max)
        except (ValueError, LookupError) as exc:
            raise ContractViolation(f"verify {name}: {exc}") from exc
    return results


def cmd_verify(args) -> int:
    _check_nmax(args)
    items = _verify_items(args.item, args.nmax, args.cache)
    failed = sum(not i.passed for i in items)
    doc = {"schema": SCHEMA, "kind": "verification_report", "item": args.item,
           "n_max": args.nmax, "total": len(items), "failed": failed,
           "results": [i.as_dict() for i in items]}
    lines = [f"{'PASS' if i.passed else 'FAIL'}  {i.key}"
             + (f"  [{i.detail}]" if i.detail else "") for i in items]
    lines.append(f"{len(items) - failed}/{len(items)} checks passed")
    emit(doc, args.format, lambda: "\n".join(lines))
    return 1 if failed else 0


# -- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spaceforms",
        description="Exact deck-group representation theory and twisted "
                    "Laplacian spectra on spherical space forms.")
    p.add_argument("--cache", metavar="DIR", default=None,
                   help="directory for cached group JSON documents")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="orders, classes, character tables")
    g.add_argument("selector")
    g.add_argument("what", choices=["order", "classes", "chartab"])
    g.add_argument("--format", choices=["text", "json"], default="text")
    g.set_defaults(func=cmd_group)

    i = sub.add_parser("induce", help="decompose Ind(omega^r) from a cyclic subgroup")
    i.add_argument("selector")
    i.add_argument("--gen", choices=["R", "S", "T", "RST"], default=None,
                   help="cyclic subgroup; omit for the full T/S/R layout")
    i.add_argument("--r", type=int, default=None,
                   help="twist index; omit for the whole column")
    i.add_argument("--format", choices=["text", "json"], default="text")
    i.set_defaults(func=cmd_induce)

    s = sub.add_parser("spectrum", help="twisted degeneracy series")
    s.add_argument("selector")
    s.add_argument("--gen", choices=["R", "S", "T", "RST"], default=None,
                   help="use the lens space of this cyclic subgroup")
    s.add_argument("--r", type=int, default=None, help="cyclic twist index")
    s.add_argument("--irrep", default=None, help="irrep twist by display name")
    s.add_argument("--nmax", type=int, default=24)
    s.add_argument("--weight", choices=["none", "raw", "heat", "zeta", "counting"],
                   default="none")
    s.add_argument("--param", type=float, default=None,
                   help="t for heat, s for zeta, lambda cutoff for counting")
    s.add_argument("--format", choices=["text", "json", "csv"], default="text")
    s.set_defaults(func=cmd_spectrum)

    t = sub.add_parser("torsion", help="lens space analytic torsion")
    t.add_argument("--q", type=int, required=True)
    t.add_argument("--r", type=int, required=True)
    t.add_argument("--format", choices=["text", "json"], default="text")
    t.set_defaults(func=cmd_torsion)

    m = sub.add_parser("mckay", help="McKay graph / compactified class diagram")
    m.add_argument("selector")
    m.add_argument("--class-version", action="store_true",
                   help="the compactified class diagram instead of the irrep graph")
    m.add_argument("--format", choices=["text", "json", "dot"], default="text")
    m.set_defaults(func=cmd_mckay)

    v = sub.add_parser("verify", help="run verification items")
    v.add_argument("item", choices=["all", *theorems.VERIFY_ITEMS])
    v.add_argument("--nmax", type=int, default=60)
    v.add_argument("--format", choices=["text", "json"], default="text")
    v.set_defaults(func=cmd_verify)
    return p


@functools.lru_cache(maxsize=1)
def _parser(verify_items: tuple) -> argparse.ArgumentParser:
    """`build_parser()`, built once per set of registry names: a parser
    holds no state between parses, and the key makes a changed registry
    build a new one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser(tuple(theorems.VERIFY_ITEMS)).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, LookupError) as exc:     # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractViolation, TableDerivationError) as exc:
        print(f"internal contract violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
