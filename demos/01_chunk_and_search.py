"""Chunk a small document collection and query it with BM25.

Walks through the first half of the retrieval stack: sentence-aligned
passage chunking, inverted-index construction, and ranked keyword search.
"""

from hyqa.corpus import Document, chunk_retrieval_passages
from hyqa.sparse import build_sparse_index, sparse_search

DOCUMENTS = [
    Document(
        id="coasts",
        title="Coastal weather",
        body=(
            "Coastal storms intensify quickly over warm water. "
            "Forecasters track pressure drops hour by hour. "
            "Evacuation routes are published before each season."
        ),
    ),
    Document(
        id="vaccines",
        title="Vaccine rollout",
        body=(
            "Vaccines reduce severe illness substantially. "
            "Distribution depends on cold storage capacity. "
            "Rural clinics received freezers in the spring."
        ),
    ),
    Document(
        id="pottery",
        title="Studio notes",
        body=(
            "Glaze firing requires a slow temperature ramp. "
            "The kiln log records every firing since March."
        ),
    ),
]


def main():
    passages = []
    for doc in DOCUMENTS:
        chunks = chunk_retrieval_passages(doc, max_words=120)
        print(f"{doc.id}: {len(chunks)} passage(s)")
        passages.extend(chunks)

    index = build_sparse_index(passages)
    print(f"\nindexed {index.N} passages, {len(index.terms)} distinct terms")

    for query in ("how do storms intensify", "vaccine cold storage", "kiln firing log"):
        print(f"\nquery: {query!r}")
        for rank, hit in enumerate(sparse_search(index, query, k=2), start=1):
            print(f"  {rank}. {hit.passage_id}  score={hit.score:.3f}")


if __name__ == "__main__":
    main()
