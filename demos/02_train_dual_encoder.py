"""Train the dual encoder on topic-separable data and watch dense retrieval
improve over its random initialization.

Questions share vocabulary with their positive passages, so a handful of
epochs of contrastive training with in-batch negatives is enough for the
encoder to pull matching pairs together.
"""

import dataclasses

import numpy as np

from hyqa.corpus import Document, chunk_retrieval_passages
from hyqa.dense_index import dense_search
from hyqa.encoder import DualEncoder, IRTrainInstance, TrainConfig, encode_query, train
from hyqa.pipeline import index_dense

TOPICS = {
    "tides": "Tides follow the moon and reshape the shoreline sand daily.",
    "orchards": "Orchards need pruning before blossoms open in early spring.",
    "glaciers": "Glaciers carve valleys slowly under enormous ice pressure.",
    "markets": "Markets open at dawn with vendors calling their prices.",
}


def passage(pid, text):
    p = chunk_retrieval_passages(Document(id=pid, title="", body=text), 120)[0]
    return dataclasses.replace(p, id=pid)


def main():
    passages = {name: passage(name, text) for name, text in TOPICS.items()}
    names = list(TOPICS)

    rng = np.random.default_rng(0)
    instances = []
    for _ in range(40):
        name = names[rng.integers(len(names))]
        words = TOPICS[name].lower().replace(".", "").split()
        question = " ".join(rng.choice(words, size=3))
        negative = names[(names.index(name) + 1) % len(names)]
        instances.append(
            IRTrainInstance(
                question=question,
                positive=passages[name],
                hard_negatives=(passages[negative],),
            )
        )

    base = DualEncoder.from_texts(list(TOPICS.values()), d=32, seed=0)
    trained, trace = train(
        base, instances, TrainConfig(learning_rate=0.2, epochs=30, batch_size=4, seed=0)
    )
    print("per-epoch loss:", " ".join(f"{x:.3f}" for x in trace[::5]))

    for label, enc in (("random", base), ("trained", trained)):
        index = index_dense(enc, list(passages.values()))
        hits = 0
        for name in names:
            query = f"tell me about {name}"
            top = dense_search(index, encode_query(enc, query), 1)[0]
            hits += top.passage_id == name
        print(f"{label} encoder: {hits}/{len(names)} queries hit their topic at rank 1")


if __name__ == "__main__":
    main()
