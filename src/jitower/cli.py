"""Command-line front end: build, extend, verify, normals, report.

Configuration is a flat key=value file; reports are JSON documents with a
stable key order and exact rationals rendered as "num/den", so identical
inputs produce byte-identical outputs.  Exit codes: 0 all checks pass
(possibly with sampled / not-guaranteed qualifiers), 1 some check failed
or a strict-mode build stopped at a failed gate (``build error:``, no
tower file written), 2 the configuration or tower file was unusable.
"""

from __future__ import annotations

import argparse
import os
import sys

from .certificate import Certificate, CheckResult, FAIL, PASS, SKIPPED
from .forge import BuildError
from .groups import TABLE_CAP, CapExceeded
# step is not called here, but bench/test_bench.py checks that the tracer
# rebinds this module's step
from .tower import (CONFIG_FIELDS, LoadError, TowerConfig, TowerState,
                    betti_checks, betti_ratio, build, fixed_space_checks,
                    gate_checks, grow, ledger_at_top, load_tower, save_tower,
                    sorted_ledger, step, torsion_shadow_check)  # noqa: F401

CHECK_GROUPS = ("core", "betti", "torsion", "grading", "fixed", "normals",
                "rigidity")
DEFAULT_CHECKS = ("core", "betti", "torsion")


def parse_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (need key = value): {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def config_from_args(args) -> TowerConfig:
    """The stock config, then the config file, then the flags on top.

    Raises ValueError on an unknown key or a value that does not parse.
    """
    raw = parse_config_file(args.config) if args.config else {}
    cfg = TowerConfig()
    parsers = {key: parse for key, parse, _ in CONFIG_FIELDS}
    budget = (raw.pop("budget_scale", cfg.budget.scale),
              raw.pop("budget_base", cfg.budget.base))
    cfg.budget = parsers.pop("budget")(f"{budget[0]} {budget[1]}")
    for key, value in raw.items():
        if key in parsers:
            setattr(cfg, key, parsers[key](value))
        elif key == "seed":
            cfg.seed_path = None if value == "trivial" else value
        else:
            raise ValueError(f"unknown config key {key!r}")
    if args.depth is not None:
        cfg.depth = args.depth
    if args.relaxed:
        cfg.mode = "relaxed"
    cfg.force_hlist |= args.force_hlist
    cfg.test_budget |= args.test_budget
    return cfg


def _check_out_dirs(args):
    """Raise ValueError if --out or --report lies in a missing directory."""
    for path in (args.out, args.report):
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValueError(f"the directory of {path} does not exist")


def _emit(cert: Certificate, args) -> int:
    for line in cert.summary_lines():
        print(line)
    print(f"overall: {cert.overall()}")
    report_path = getattr(args, "report", None)
    if report_path:
        with open(report_path, "w") as fh:
            fh.write(cert.to_json())
        print(f"report written to {report_path}")
    return 0 if cert.overall() == PASS else 1


def cmd_build(args) -> int:
    try:
        cfg = config_from_args(args)
        cfg.validate(cfg.load_seed())
        _check_out_dirs(args)
        state, cert = build(cfg)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    save_tower(state, args.out)
    print(f"tower written to {args.out} "
          f"(depth {state.depth}{', truncated' if state.truncated else ''})")
    return _emit(cert, args)


def cmd_extend(args) -> int:
    state = load_tower(args.tower)
    start = state.depth
    cfg = state.config
    cfg.depth = cfg.depth + 1 if args.depth is None else args.depth
    try:
        if cfg.depth < start:
            raise ValueError(f"depth {cfg.depth} is below the tower's depth {start}")
        cfg.validate(state.seed)
        _check_out_dirs(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    grow(state)
    cert = Certificate(meta={"tool": "jitower", "extended_from": start},
                       checks=list(state.checks))
    out = args.out or args.tower
    save_tower(state, out)
    print(f"tower written to {out} (depth {state.depth})")
    return _emit(cert, args)


def _verify_core(state: TowerState) -> list:
    checks = []
    for lv in state.levels:
        if lv.rel is not None:
            checks.append(CheckResult(
                f"level{lv.index}.kernel-dim", PASS,
                f"dim ker = {lv.rel.kernel_dim} = (d-1)|G|+1 with "
                f"|G| = {state.group(lv.index - 1).order}"))
        if lv.index >= 2:
            checks.extend(gate_checks(state, lv))
    ok = all(order == now for _, order, _, now in ledger_at_top(state))
    checks.append(CheckResult(
        "tower.order-stability", PASS if ok else FAIL,
        f"{len(state.ledger)} frozen words keep their orders at the top"))
    return checks


def _verify_fixed(state: TowerState) -> list:
    checks = []
    for lv in state.levels[1:]:
        if state.group(lv.index - 1).is_enumerable(state.config.enum_cap):
            checks.extend(fixed_space_checks(state, lv))
    return checks


def _max_enumerable_level(state: TowerState) -> int:
    return max((k for k in range(state.depth + 1)
                if state.group(k).is_enumerable(state.config.enum_cap)), default=0)


def verify_certificate(state: TowerState, wanted=DEFAULT_CHECKS) -> Certificate:
    """Re-run the selected check groups on a loaded tower."""
    if "all" in wanted:
        wanted = CHECK_GROUPS
    cert = Certificate(meta={
        "tool": "jitower",
        "tower": "verify",
        "depth": state.depth,
        "conforming": state.conforming(),
        "checks": list(wanted),
    })
    cert.checks.append(CheckResult("load.invariants", PASS,
                                   "stored bases canonical, kernels and "
                                   "derivation identities verified on load"))
    if "core" in wanted:
        cert.checks.extend(_verify_core(state))
    if "betti" in wanted:
        cert.checks.extend(betti_checks(state))
    if "torsion" in wanted and state.depth >= 2:
        cert.checks.append(torsion_shadow_check(state))
    if "grading" in wanted:
        from .analysis import graded_chain_report
        level = _max_enumerable_level(state)
        order = state.group(level).order
        if order > TABLE_CAP:
            cert.checks.append(CheckResult(
                "grading.descends", SKIPPED,
                f"top enumerable level {level} has order {order}, above the "
                f"multiplication-table cap {TABLE_CAP}"))
        elif level >= 1:
            cert.checks.extend(graded_chain_report(state, level))
    if "fixed" in wanted:
        cert.checks.extend(_verify_fixed(state))
    if "normals" in wanted:
        from .analysis import (classification_report, growth_report,
                               size_bound_report, tower_chain)
        level = _max_enumerable_level(state)
        chain = tower_chain(state)[:level + 1]
        guard = state.config.submodule_guard
        try:
            if chain[-1].order > 2000:
                raise CapExceeded(f"top enumerable level has order {chain[-1].order}, "
                                  "brute force capped at 2000")
            descs, check = classification_report(chain, guard=guard)
            _, gchecks = growth_report(chain, guard=guard)
            cert.checks += [check, size_bound_report(chain, descs), *gchecks]
        except CapExceeded as exc:
            cert.checks.append(CheckResult(
                "normals.classification-oracle", SKIPPED, str(exc)))
    if "rigidity" in wanted:
        from .analysis import rigidity_report
        for i in range(1, state.depth):
            if state.group(i).is_enumerable(state.config.enum_cap):
                try:
                    cert.checks.append(rigidity_report(
                        state, i, guard=state.config.submodule_guard))
                except CapExceeded as exc:
                    cert.checks.append(CheckResult(
                        f"rigidity.level{i + 1}", SKIPPED, str(exc)))
    return cert


def cmd_verify(args) -> int:
    wanted = tuple(args.checks.split(",")) if args.checks else DEFAULT_CHECKS
    for w in wanted:
        if w not in CHECK_GROUPS and w != "all":
            print(f"unknown check group {w!r} (have {', '.join(CHECK_GROUPS)})",
                  file=sys.stderr)
            return 2
    return _emit(verify_certificate(load_tower(args.tower), wanted), args)


def cmd_normals(args) -> int:
    if args.max_index is not None and args.max_index < 1:
        print(f"--max-index {args.max_index} is below 1", file=sys.stderr)
        return 2
    state = load_tower(args.tower)
    from .analysis import growth_report, tower_chain
    level = args.level if args.level is not None else _max_enumerable_level(state)
    if not 0 <= level <= state.depth or not state.group(level).is_enumerable(
            state.config.enum_cap):
        print(f"level {level} is not enumerable", file=sys.stderr)
        return 2
    chain = tower_chain(state)[:level + 1]
    brute = chain[-1].order <= 2000
    try:
        table, checks = growth_report(chain, max_index=args.max_index,
                                      guard=state.config.submodule_guard,
                                      brute=brute)
    except CapExceeded as exc:
        print(f"truncated: {exc}")
        return 0
    for line in table.lines():
        print(line)
    print(f"total normal subgroups: {table.total}"
          + ("" if brute else " (brute-force oracle skipped: group too large)"))
    cert = Certificate(meta={"tool": "jitower", "level": level}, checks=checks)
    return _emit(cert, args)


def cmd_report(args) -> int:
    state = load_tower(args.tower)
    cfg = state.config
    print(f"tower: d={cfg.d} primes={list(cfg.primes)} epsilon={cfg.epsilon} "
          f"budget=({cfg.budget.scale},{cfg.budget.base}) mode={cfg.mode}")
    print(f"depth {state.depth}"
          + (" (truncated)" if state.truncated else "")
          + f", conforming={state.conforming()}")
    for k in range(state.depth + 1):
        g = state.group(k)
        if k == 0:
            print(f"  G_0: seed order {g.order}")
            continue
        lv = state.levels[k - 1]
        size = str(g.order) if g.order < 10 ** 12 else \
            f"{lv.p}^{lv.dim} * {state.group(k - 1).order}"
        print(f"  G_{k}: order {size}, p={lv.p}, dim V={lv.dim}, "
              f"delta={lv.delta}, r={lv.r}, s={lv.s}, hlist={int(lv.hlist_used)}")
    if state.ledger:
        print("frozen words:")
        for w, (o, lvl) in sorted_ledger(state):
            print(f"  {w} order {o} (level {lvl})")
    else:
        print("frozen words: none")
    for lv in state.levels[1:]:
        ratio, threshold = betti_ratio(state, lv)
        print(f"  ratio dim V_{lv.index}/|G_{lv.index - 1}| = {ratio} "
              f"(threshold {threshold})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jitower",
        description="build and verify towers of finite split extensions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a tower from a config")
    p_build.add_argument("--config", help="key=value config file")
    p_build.add_argument("--out", default="tower.twr", help="tower output path")
    p_build.add_argument("--report", help="write the JSON certificate here")
    p_build.add_argument("--depth", type=int)
    p_build.add_argument("--force-hlist", action="store_true")
    p_build.add_argument("--relaxed", action="store_true")
    p_build.add_argument("--test-budget", action="store_true")
    p_build.set_defaults(func=cmd_build)

    p_ext = sub.add_parser("extend", help="resume a tower file and add levels")
    p_ext.add_argument("--tower", required=True)
    p_ext.add_argument("--out", help="defaults to overwriting the input")
    p_ext.add_argument("--depth", type=int, help="new total depth")
    p_ext.add_argument("--report")
    p_ext.set_defaults(func=cmd_extend)

    p_ver = sub.add_parser("verify", help="re-verify a tower file")
    p_ver.add_argument("--tower", required=True)
    p_ver.add_argument("--checks", help=f"comma list from {','.join(CHECK_GROUPS)} or all")
    p_ver.add_argument("--report")
    p_ver.set_defaults(func=cmd_verify)

    p_nrm = sub.add_parser("normals", help="normal subgroup growth table")
    p_nrm.add_argument("--tower", required=True)
    p_nrm.add_argument("--level", type=int)
    p_nrm.add_argument("--max-index", dest="max_index", type=int)
    p_nrm.add_argument("--report")
    p_nrm.set_defaults(func=cmd_normals)

    p_rep = sub.add_parser("report", help="summarize a tower file")
    p_rep.add_argument("--tower", required=True)
    p_rep.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BuildError as exc:
        print(f"build error: {exc}", file=sys.stderr)
        return 1
    except (LoadError, OSError) as exc:
        kind = "load error" if isinstance(exc, LoadError) else "file error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
