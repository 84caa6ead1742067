"""``python -m repro.statcheck [paths]`` — run the suite from a shell.

Exit status: 0 when clean, 1 when findings remain, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from .engine import all_rules, check_paths
from .findings import Finding, render_json, render_text


def _default_paths() -> List[Path]:
    """Lint the installed ``repro`` package when no path is given."""
    return [Path(__file__).resolve().parents[1]]


def _git(args: List[str], cwd: Optional[Path] = None) -> str:
    return subprocess.run(
        ["git", *args],
        cwd=cwd,
        check=True,
        capture_output=True,
        text=True,
    ).stdout


def changed_python_files(base: Optional[str] = None) -> List[Path]:
    """Python files changed relative to ``base`` (plus untracked ones).

    ``base`` defaults to the first of ``origin/main``, ``origin/master``,
    ``main``, ``master`` that resolves.  Deleted files are excluded, and
    paths are returned absolute so the caller's cwd does not matter.

    Raises ``RuntimeError`` outside a git work tree or when ``base``
    does not resolve to a commit.
    """
    try:
        root = Path(_git(["rev-parse", "--show-toplevel"]).strip())
    except (subprocess.CalledProcessError, OSError) as exc:
        raise RuntimeError("--changed requires a git work tree") from exc
    candidates = [base] if base else ["origin/main", "origin/master", "main", "master"]
    ref = None
    for candidate in candidates:
        try:
            _git(["rev-parse", "--verify", "--quiet", f"{candidate}^{{commit}}"], cwd=root)
        except subprocess.CalledProcessError:
            continue
        ref = candidate
        break
    if ref is None:
        raise RuntimeError(
            f"no base ref found (tried {', '.join(candidates)}); pass --base REF"
        )
    listed = _git(
        ["diff", "--name-only", "--diff-filter=d", ref, "--"], cwd=root
    ).splitlines()
    listed += _git(
        ["ls-files", "--others", "--exclude-standard"], cwd=root
    ).splitlines()
    files = []
    for name in dict.fromkeys(listed):
        path = root / name
        if path.suffix == ".py" and path.exists():
            files.append(path)
    return files


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.statcheck",
        description=(
            "Repo-specific static analysis: unit-dimension, determinism "
            "and config-invariant lints for the MPT reproduction."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to check (default: the repro package)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON report instead of text",
    )
    parser.add_argument(
        "--select",
        default="",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default="",
        metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--rules",
        default="",
        metavar="IDS",
        help=(
            "comma-separated rule ids or family prefixes to run "
            "(`--rules EFF001,COMM001` or `--rules EFF,SHAPE`); "
            "combines with --select as a union"
        ),
    )
    parser.add_argument(
        "--effects",
        action="store_true",
        help=(
            "emit the interprocedural effect summaries (JSON, one entry "
            "per function under the given paths) instead of findings"
        ),
    )
    parser.add_argument(
        "--costs",
        action="store_true",
        help=(
            "emit the symbolic cost report (JSON, one entry per "
            "@cost-annotated function: declared vs derived polynomials "
            "and asymptotic signatures) instead of findings"
        ),
    )
    parser.add_argument(
        "--update-cost-baseline",
        action="store_true",
        help=(
            "regenerate the COST003 complexity baseline "
            "(statcheck/costs/baseline.json) from the current "
            "annotations and exit"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help=(
            "check only .py files changed vs the base ref (git diff + "
            "untracked) instead of whole trees"
        ),
    )
    parser.add_argument(
        "--base",
        default=None,
        metavar="REF",
        help=(
            "base ref for --changed (default: first of origin/main, "
            "origin/master, main, master that exists)"
        ),
    )
    return parser


def _split_ids(raw: str) -> Optional[List[str]]:
    ids = [token.strip() for token in raw.split(",") if token.strip()]
    return ids or None


def _expand_rule_tokens(raw: str) -> Optional[List[str]]:
    """Expand ``--rules`` tokens (exact ids or alphabetic family
    prefixes like ``EFF``) against the catalogue.

    Raises ``ValueError`` for a token matching nothing.
    """
    tokens = _split_ids(raw)
    if tokens is None:
        return None
    catalogue = [rule.id for rule in all_rules()]
    expanded: List[str] = []
    for token in tokens:
        if token in catalogue:
            expanded.append(token)
            continue
        family = [rid for rid in catalogue if token.isalpha()
                  and rid.rstrip("0123456789") == token]
        if not family:
            raise ValueError(f"unknown rule or family: {token!r}")
        expanded.extend(family)
    return expanded


def _effects_report(paths: List[Path]) -> str:
    """Per-function effect summaries (JSON) for every ``.py`` file under
    ``paths``, one package analysis per touched package."""
    import json

    from .engine import iter_python_files
    from .index import indexed_files

    requested = [Path(p).resolve() for p in paths]

    def wanted(function_path: str) -> bool:
        fp = Path(function_path)
        for req in requested:
            if fp == req or req in fp.parents:
                return True
        return False

    indexes = {}
    for file, index in indexed_files(iter_python_files(paths)):
        indexes.setdefault(str(index.root or file.resolve()), index)
    packages = []
    functions = []
    for root in sorted(indexes):
        analysis = indexes[root].effects
        packages.append({"root": root, "stats": analysis.stats})
        functions.extend(
            summary.to_json()
            for key in sorted(analysis.summaries)
            for summary in (analysis.summaries[key],)
            if wanted(summary.path)
        )
    return json.dumps(
        {"version": 1, "packages": packages, "functions": functions},
        indent=2,
        sort_keys=True,
    )


def _costs_report(paths: List[Path]) -> str:
    """Per-function declared/derived cost polynomials (JSON) for every
    ``@cost``-annotated function under ``paths``; a file that does not
    parse is listed as its ``SYNT001`` event."""
    import json

    from .costs.checks import cost_signature
    from .engine import iter_contexts
    from .interp import contract_pass

    functions = []
    events = []
    for ctx in iter_contexts(paths):
        if isinstance(ctx, Finding):
            events.append({k: getattr(ctx, k) for k in ("rule", "path", "line", "message")})
            continue
        contracts = contract_pass(ctx)
        shown = ctx.path
        seen = set()
        for info in contracts.defs:
            if info.cost_decorator is None or info.qualname in seen:
                continue
            seen.add(info.qualname)
            entry = {
                "path": shown,
                "qualname": info.qualname,
                "line": info.cost_decorator.lineno,
            }
            cc = info.cost
            if cc is None:
                entry["error"] = info.cost_error
                functions.append(entry)
                continue
            entry["assume"] = cc.assume
            declared = {
                label: str(cc.closed(expr))
                for label, expr in (
                    ("flops", cc.flops), ("mem", cc.mem), ("ret", cc.ret),
                    ("ret_len", cc.ret_len),
                )
                if expr is not None
            }
            if cc.ret_sum is not None:
                declared["ret_sum"] = [
                    None if expr is None else str(cc.closed(expr))
                    for expr in cc.ret_sum
                ]
            entry["declared"] = declared
            entry["signature"] = cost_signature(cc)
            derived = contracts.derived.get(info.qualname)
            if derived is not None:
                wenv = cc.where_env()
                entry["derived"] = {
                    "flops": str(derived.flops.subs(wenv)),
                    "mem": str(derived.mem.subs(wenv)),
                }
            functions.append(entry)
        events.extend(
            {
                "rule": rule,
                "path": shown,
                "line": getattr(node, "lineno", 0),
                "message": message,
            }
            for rule, node, message in contracts.events
            if rule.startswith("COST")
        )
    return json.dumps(
        {"version": 1, "functions": functions, "events": events},
        indent=2,
        sort_keys=True,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.name}")
            print(f"    {rule.description}")
        return 0
    if args.update_cost_baseline:
        from .costs.baseline import write_baseline

        target = write_baseline(_default_paths()[0])
        print(f"statcheck: wrote {target}")
        return 0
    if args.base and not args.changed:
        print("statcheck: --base only makes sense with --changed", file=sys.stderr)
        return 2
    if args.changed:
        if args.paths:
            print("statcheck: --changed and explicit paths are exclusive",
                  file=sys.stderr)
            return 2
        try:
            paths = changed_python_files(args.base)
        except RuntimeError as exc:
            print(f"statcheck: {exc}", file=sys.stderr)
            return 2
        if not paths:
            if args.effects:
                print(_effects_report([]))
            elif args.costs:
                print(_costs_report([]))
            else:
                print(render_json([]) if args.json else render_text([]))
            return 0
    else:
        paths = args.paths or _default_paths()
    missing = [str(p) for p in paths if not Path(p).exists()]
    if missing:
        print(f"statcheck: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.effects:
        print(_effects_report(list(paths)))
        return 0
    if args.costs:
        print(_costs_report(list(paths)))
        return 0
    try:
        selected = _split_ids(args.select)
        expanded = _expand_rule_tokens(args.rules)
        if expanded is not None:
            selected = sorted(set(selected or []) | set(expanded))
        findings = check_paths(
            paths, select=selected, ignore=_split_ids(args.ignore)
        )
    except ValueError as exc:
        print(f"statcheck: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
