"""Generate one workload's input files from its seed.

Run as its own process so that generation neither enters the measured
process's timings nor its peak RSS:

    python3 perfbench/fixtures.py --workload didemo-exhaustive --seed 1 --out DIR [--toy]

Writes DIR/corpus (planted corpus and queries via generate_synthetic),
DIR/model.calw (init_params weights) and DIR/meta.json (corpus shape,
candidate and query counts).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from momentsearch.dataio import SyntheticSpec, generate_synthetic, write_checkpoint  # noqa: E402
from momentsearch.model import ModelDims, init_params  # noqa: E402

from workloads import WORKLOADS, fixture_paths, local_candidates  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    paths = fixture_paths(args.out)
    preset = w.preset_obj()
    spec = SyntheticSpec(seed=args.seed, **(w.toy_corpus if args.toy else w.corpus))
    corpus, queries = generate_synthetic(spec, preset, paths["corpus"])
    write_checkpoint(paths["ckpt"], init_params(ModelDims(**w.dims), args.seed),
                     {"seed": args.seed})
    meta = {
        "videos": len(corpus.videos),
        "clips_per_video": spec.clips_per_video,
        "clips": corpus.total_clips,
        "visual_dim": spec.visual_dim,
        "word_dim": spec.word_dim,
        "candidates": sum(len(local_candidates(v.num_clips, preset.enum)) for v in corpus.videos),
        "queries": len(queries),
        "preset": preset.name,
    }
    with open(paths["meta"], "w", encoding="utf-8") as f:
        json.dump(meta, f, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
