"""Command-line entry point: corpus generation, splitting, training,
evaluation, gradient checks, the experiment matrix, and LF tokenization.

Exit codes: 0 success, 2 usage/configuration error, 3 data or checkpoint
integrity error, 4 numeric invariant failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import model as mdl
from . import trainer as tr
from .checkpoint import (CheckpointError, atomic_write, load_checkpoint,
                         restore_params, save_checkpoint)
from .corpus import (DatasetError, LOGICAL_FORMS, build_paragraph_context,
                     build_templates, generate_corpus, instantiate_questions,
                     lf_tokenize, read_dataset, write_dataset)
from .model import ModelConfig
from .splits import SPLITS, SplitAssignment, filter_examples, \
    leakage_audit, make_assignment
from .tensor import GradientError
from .textpipe import EncodingError, Vocab
from .trainer import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTEGRITY = 3
EXIT_NUMERIC = 4

# the thread-count variables BLAS libraries read when numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Settings: dotted model.<field> / train.<field> keys.
# ---------------------------------------------------------------------------

_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}


def resolve_configs(args, vocab: Vocab, systems, decided: dict,
                    **train) -> tuple[ModelConfig, TrainConfig]:
    """The configs a command trains with: --config's JSON object, then each
    --set key=value (JSON, else a string), over `train` and the vocabulary
    size. A key the command does not use exits 2 naming it: an unknown or
    mistyped one, one in `decided` (key -> what decides it), or one every
    system in `systems` fixes or has no use for (trainer.SYSTEMS). Configs
    check ranges, and each system checks the model config (apply_system)."""
    settings = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                settings = json.load(fh)
        except (OSError, ValueError) as exc:   # not UTF-8, or not JSON
            raise CliError(f"cannot read config {args.config}: {exc}")
        if not isinstance(settings, dict):
            raise CliError(f"config {args.config} is not a JSON object")
    for key, eq, raw in (item.partition("=") for item in args.set or []):
        if not eq:
            raise CliError(f"--set expects key=value, got {key!r}")
        with contextlib.suppress(json.JSONDecodeError):
            raw = json.loads(raw)
        settings[key.strip()] = raw
    who = (f"--system {systems[0]}" if len(systems) == 1 else "every "
           f"run-matrix row (--system {', '.join(dict.fromkeys(systems))})")
    decided = {key: f"{by} decides it" for key, by in
               {"model.vocab_size": "--vocab", **decided}.items()}
    for f in dataclasses.fields(ModelConfig):
        uses = {"fixes it" if f.name in fixes else
                "has no use for it" if f.name in unused else None
                for fixes, unused in map(tr.SYSTEMS.get, systems)}
        if None not in uses:
            decided[f"model.{f.name}"] = f"{who} {' or '.join(sorted(uses))}"
    chosen = {"model": {"vocab_size": len(vocab)}, "train": train}
    for key, value in settings.items():
        scope, _, name = key.partition(".")
        if scope not in chosen:
            raise CliError(f"unknown config key {key!r}: keys are "
                           "model.<field> or train.<field>")
        cls = ModelConfig if scope == "model" else TrainConfig
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        if name not in types:
            raise CliError(f"unknown {scope} config key {name!r}")
        if key in decided:
            raise CliError(f"{key} cannot be set: {decided[key]}")
        if type(value) not in _TYPES[types[name]]:
            raise CliError(f"{key} must be {types[name]}, got {value!r}")
        chosen[scope][name] = value
    model_config = ModelConfig(**chosen["model"])
    for system in systems:
        tr.apply_system(model_config, system)
    return model_config, TrainConfig(**chosen["train"])


def _git_describe() -> str:
    """The commit of the entqa source, wherever the command runs from."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):   # no git, or a hung one
        pass
    return "unknown"


def write_manifest(out_dir: Path, command: str, argv: list, resolved: dict,
                   seed: int | None, coverage: dict | None = None):
    """manifest.json in `out_dir`; `coverage` maps each split a command
    encoded (under its split mode, for run-matrix) to the examples handed
    to the encoder and the pairs it kept."""
    manifest = {
        "command": command,
        "argv": argv,
        "resolved_config": resolved,
        "seed": seed,
        "git_describe": _git_describe(),
        "blas_thread_env": {var: os.environ.get(var)
                            for var in BLAS_THREAD_VARS},
    }
    if coverage is not None:
        manifest["coverage"] = coverage
    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_write(out_dir / "manifest.json", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _emit(payload: dict, as_json: bool, human: str):
    print(json.dumps(payload, sort_keys=True) if as_json else human)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    out = Path(args.out)
    notes = generate_corpus(seed=args.seed, num_notes=args.num_notes,
                            facts_per_note=args.facts_per_note,
                            distractor_rate=args.distractor_rate)
    examples = instantiate_questions(notes, build_templates())
    if args.setting == "paragraph":
        by_id = {n.note_id: n for n in notes}
        rng = np.random.default_rng(args.seed + 1)
        examples = [build_paragraph_context(ex, by_id[ex.note_id], rng)
                    for ex in examples]
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_dataset(examples, out / "corpus.jsonl")
    except OSError as exc:
        raise CliError(f"cannot write to {out}: {exc}")
    vocab = Vocab.build([ex.question for ex in examples]
                        + [ex.context_text for ex in examples])
    vocab.save(out / "vocab.txt")
    resolved = {"seed": args.seed, "num_notes": args.num_notes,
                "setting": args.setting,
                "facts_per_note": args.facts_per_note,
                "distractor_rate": args.distractor_rate,
                "n_examples": len(examples), "vocab_size": len(vocab)}
    write_manifest(out, "gen-data", args.argv, resolved, args.seed)
    _emit(resolved, args.json,
          f"wrote {len(examples)} examples ({args.setting} setting), "
          f"vocab of {len(vocab)} to {out}")
    return EXIT_OK


def _assign(examples, mode: str, **split) -> SplitAssignment:
    """An assignment of the corpus's notes and every paraphrase template;
    one example of each note stands for the note."""
    notes = {ex.note_id: ex for ex in examples}.values()
    return make_assignment(notes, build_templates(), mode, **split)


def cmd_split(args) -> int:
    examples = list(read_dataset(args.data))
    assignment = _assign(examples, args.mode, seed=args.seed,
                         train_frac=args.train_frac)
    train, val, test = filter_examples(examples, assignment)
    audit = leakage_audit(train, val + test, assignment)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    assignment.save(out / "split.json")
    for name, part in zip(SPLITS, (train, val, test)):
        with atomic_write(out / f"{name}_ids.txt", encoding="utf-8") as fh:
            fh.writelines(ex.id + "\n" for ex in part)
    resolved = {"mode": args.mode, "seed": args.seed,
                "train_frac": args.train_frac,
                "sizes": {"train": len(train), "val": len(val),
                          "test": len(test)},
                "leakage": audit}
    write_manifest(out, "split", args.argv, resolved, args.seed)
    _emit(resolved, args.json,
          f"split {args.mode}: train={len(train)} val={len(val)} "
          f"test={len(test)}; leakage audit: {audit}")
    return EXIT_OK


def _read_splits(args, check):
    """Read --data, --vocab and --split in that order, calling check(vocab)
    before the split file. Returns check's result, the split file's seed
    and pairs(split, config): a split's encoded pairs and its coverage,
    the examples handed to the encoder and the pairs it kept (a span
    question whose answer the truncation cuts off is dropped). Evidence
    negatives come from a stream keyed on (the split file's seed, the
    split), so the split file fixes every split's pairs for every training
    seed and for `eval`."""
    examples = list(read_dataset(args.data))
    vocab = Vocab.load(args.vocab)
    checked = check(vocab)
    assignment = SplitAssignment.load(args.split)
    parts = dict(zip(SPLITS, filter_examples(examples, assignment)))

    def pairs(split: str, config: ModelConfig):
        L = config.max_seq_len
        if config.mode == "evidence":
            rng = np.random.default_rng([assignment.seed,
                                         SPLITS.index(split)])
            handed = tr.make_evidence_examples(parts[split], rng)
            kept = tr.encode_evidence_examples(handed, vocab, L)[0]
        else:
            handed = parts[split]
            kept = tr.encode_examples(handed, vocab, L)
        return kept, {"examples": len(handed), "pairs": len(kept)}
    return checked, assignment.seed, pairs


def cmd_train(args) -> int:
    (model_config, train_config), _, pairs = _read_splits(
        args, lambda vocab: resolve_configs(
            args, vocab, [args.system],
            {"train.system": "--system", "train.seed": "--seed"},
            system=args.system, seed=args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = tr.apply_system(model_config, args.system)
    (train_pairs, train_cov), (val_pairs, val_cov) = (
        pairs("train", config), pairs("val", config))
    coverage = {"train": train_cov, "val": val_cov}
    result = tr.train(train_pairs, val_pairs, model_config, train_config,
                      log_path=out / "train_log.jsonl")
    result.model_config.save(out / "model_config.json")
    save_checkpoint(out / "model.ckpt", result.params,
                    result.model_config.digest())
    resolved = {"model": dataclasses.asdict(result.model_config),
                "train": dataclasses.asdict(train_config)}
    write_manifest(out, "train", args.argv, resolved, train_config.seed,
                   coverage)
    # -inf before the first validation, which strict JSON has no word for
    best = result.best_val_f1 if math.isfinite(result.best_val_f1) else None
    summary = {"best_val_f1": best,
               "steps": len(result.log),
               "stopped_early": result.stopped_early,
               "aborted": result.aborted,
               "coverage": coverage}
    _emit(summary, args.json,
          f"trained {train_config.system}: best val F1 "
          f"{result.best_val_f1:.4f} over {len(result.log)} steps"
          + (" [ABORTED: non-finite loss]" if result.aborted else ""))
    if result.aborted:
        raise CliError("training aborted on non-finite loss", EXIT_NUMERIC)
    return EXIT_OK


def cmd_eval(args) -> int:
    run_dir = Path(args.run)
    config = ModelConfig.load(run_dir / "model_config.json")
    arrays, digest = load_checkpoint(run_dir / "model.ckpt")
    if digest != config.digest():
        raise CliError(
            f"checkpoint/config digest mismatch: checkpoint carries "
            f"{digest}, config is {config.digest()}", EXIT_INTEGRITY)
    params = mdl.init_params(config, seed=0)
    restore_params(params, arrays)

    def check_vocab(vocab):
        if len(vocab) != config.vocab_size:
            raise CliError(
                f"vocabulary {args.vocab} holds {len(vocab)} tokens, but the "
                f"checkpoint was trained on {config.vocab_size}",
                EXIT_INTEGRITY)
    _, seed, pairs = _read_splits(args, check_vocab)
    scored, coverage = pairs(args.subset, config)
    report = tr.evaluate_pairs(params, config, scored)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report.save(out / "report.json")
        if report.confusion:
            report.save_confusion_csv(out / "confusion.csv")
        write_manifest(out, "eval", args.argv,
                       {"run": str(run_dir), "subset": args.subset}, seed,
                       {args.subset: coverage})
    print(json.dumps(report.to_json(), sort_keys=True))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.seeds < 1:
        raise CliError(f"--seeds must be at least 1, got {args.seeds}")
    if not 0 < args.tolerance < math.inf:
        raise CliError(f"--tolerance must be finite and > 0, got "
                       f"{args.tolerance}")
    worst_name, worst = None, 0.0
    for seed in range(args.seeds):
        errors = mdl.fragment_gradchecks(seed=seed)
        name = max(errors, key=errors.get)
        if errors[name] > worst:
            worst_name, worst = name, errors[name]
        if errors[name] > args.tolerance:
            _emit({"passed": False, "seed": seed, "worst": worst,
                   "worst_param": worst_name}, args.json,
                  f"gradcheck FAILED at seed {seed} "
                  f"(worst {worst:.3e} at {worst_name})")
            raise CliError("gradient check failed", EXIT_NUMERIC)
    _emit({"passed": True, "seeds": args.seeds, "worst": worst,
           "worst_param": worst_name}, args.json,
          f"gradcheck passed over {args.seeds} seeds "
          f"(worst rel err {worst:.3e} at {worst_name})")
    return EXIT_OK


def cmd_run_matrix(args) -> int:
    examples = list(read_dataset(args.data))
    vocab = Vocab.load(args.vocab)
    model_config, train_config = resolve_configs(
        args, vocab, [system for system, _ in tr.MATRIX_ROWS],
        {"train.system": "each run-matrix row", "train.seed": "--seeds"})
    splits_by_mode = {
        mode: filter_examples(examples,
                              _assign(examples, mode, seed=args.split_seed))
        for mode in ("pl", "r")
    }
    try:
        seeds = [_seed(s) for s in args.seeds.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise CliError(f"--seeds takes comma-separated seeds: {exc}")
    out = Path(args.out)
    result = tr.run_matrix(splits_by_mode, vocab, model_config, train_config,
                           seeds)
    table = tr.save_matrix(result["cells"], out)
    resolved = {"model": dataclasses.asdict(model_config),
                "train": dataclasses.asdict(train_config),
                "seeds": seeds, "split_seed": args.split_seed}
    write_manifest(out, "run-matrix", args.argv, resolved,
                   args.split_seed, result["coverage"])
    if args.json:
        cells = {f"{system}/{mode}": cell
                 for (system, mode), cell in result["cells"].items()}
        print(json.dumps(cells, sort_keys=True))
    else:
        print(table, end="")
    return EXIT_OK


def cmd_lf_tokenize(args) -> int:
    if args.lf_id is not None:
        if not 0 <= args.lf_id < len(LOGICAL_FORMS):
            raise CliError(f"lf id must be in [0, {len(LOGICAL_FORMS)})")
        text = LOGICAL_FORMS[args.lf_id].lf_string
    elif args.text is not None:
        text = args.text
    else:
        raise CliError("provide an LF string or --lf-id")
    tokens = lf_tokenize(text)
    _emit({"lf": text, "tokens": dict(tokens)}, args.json,
          f"{text}\n" + "\n".join(f"  {t} x{c}" for t, c in
                                  sorted(tokens.items())))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    """A seed flag's value: numpy takes only non-negative integers."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entqa",
        description="Entity-enriched multi-task extractive QA pipeline.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON on stdout")

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--num-notes", type=int, default=100)
    p.add_argument("--setting", choices=("sentence", "paragraph"),
                   default="sentence")
    p.add_argument("--facts-per-note", type=int, default=6)
    p.add_argument("--distractor-rate", type=float, default=0.4)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("split", help="write a train/val/test assignment")
    p.add_argument("--mode", choices=("pl", "r"), required=True)
    p.add_argument("--train-frac", type=float, default=0.7)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--data", required=True, help="corpus JSONL")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train one system")
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--split", required=True, help="split.json path")
    p.add_argument("--system", choices=tr.SYSTEMS, default="multitask")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--config", help="JSON config with dotted keys")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained run")
    p.add_argument("--run", required=True,
                   help="training output directory (checkpoint + config)")
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--subset", choices=SPLITS, default="test")
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--tolerance", type=float, default=1e-4)
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("run-matrix", help="four-system comparison table")
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--seeds", default="0,1,2", help="comma-separated")
    p.add_argument("--split-seed", type=_seed, default=0)
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_run_matrix)

    p = sub.add_parser("lf-tokenize", help="tokenize a logical form")
    p.add_argument("text", nargs="?")
    p.add_argument("--lf-id", type=int)
    common(p)
    p.set_defaults(func=cmd_lf_tokenize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DatasetError, CheckpointError, EncodingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except GradientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
