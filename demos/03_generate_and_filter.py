"""Generate synthetic QA examples from a passage, filter them by roundtrip
answerability, and mine a BM25 hard negative for each survivor.

This is the data-creation half of domain adaptation: no labeled questions
exist, so the pipeline invents them and keeps only the ones a span scorer
can answer from the source passage.
"""

import dataclasses

from hyqa.corpus import Document, chunk_generation_passages
from hyqa.mrc import LexicalScorer
from hyqa.sparse import build_sparse_index
from hyqa.syngen import FilterConfig, SamplerConfig, build_ir_training_set, generate_corpus, roundtrip_filter

TEXTS = {
    "reef": (
        "Coral reefs bleach when water warms past a threshold. "
        "Divers log bleaching events along the northern reef. "
        "Recovery takes years once temperatures stabilize."
    ),
    "dunes": (
        "Dune grasses anchor the sand against winter storms. "
        "Rangers replant grasses each autumn along the ridge."
    ),
    "bog": (
        "Peat bogs store carbon for thousands of years. "
        "Drained bogs release that carbon back as gas."
    ),
}


def passage(pid, text):
    p = chunk_generation_passages(Document(id=pid, title="", body=text), 288)[0]
    return dataclasses.replace(p, id=pid)


def main():
    passages = {pid: passage(pid, text) for pid, text in TEXTS.items()}
    index = build_sparse_index(list(passages.values()))

    result = generate_corpus(list(passages.values()), n=6, sampler=SamplerConfig(seed=0))
    generated = result.examples
    for pid in passages:
        print(f"{pid}: {sum(ex.passage_id == pid for ex in generated)} examples")
    print(f"discards {dict(result.discards)}")

    kept = roundtrip_filter(
        generated, LexicalScorer(), FilterConfig(threshold=1.0), TEXTS
    ).kept
    print(f"\nfilter kept {len(kept)}/{len(generated)} examples")

    mined = build_ir_training_set(kept[:5], index, passages, depth=100)
    print(f"mined {len(mined.instances)} hard negatives ({mined.dropped} dropped)")
    for inst in mined.instances:
        print(f"  Q: {inst.question!r}")
        print(f"     positive={inst.positive.id}  negative={inst.hard_negatives[0].id}")


if __name__ == "__main__":
    main()
