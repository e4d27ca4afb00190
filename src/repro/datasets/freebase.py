"""Synthetic Freebase-scale database (Chapter 5's large-scale substrate).

Freebase (as used by FreeQ) is a big *flat* schema: 7,000+ relational tables
organized into 100+ topical domains, each domain a small cluster of entity
and link tables, with entity names shared heavily across domains (the same
person appears in /film, /music, /award ...).  The generator reproduces that
shape at configurable scale:

* ``n_domains`` domains, each with four entity tables (person, work,
  organization, place) and three link tables — 7 tables per domain;
* textual attributes tagged with a semantic type, from which the two-layer
  ontology (``Thing -> type -> type/domain``) of Section 5.5 is built;
* entity vocabulary drawn from shared pools, so one keyword matches
  attributes in *many* domains — the fan-out that makes per-attribute QCOs
  uninformative and ontology QCOs essential.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from pathlib import Path
from typing import Iterator

from repro.datasets import _store, names
from repro.db.backends import StorageBackend, create_backend
from repro.db.backends.base import LoadRow
from repro.db.schema import Attribute, Schema, Table
from repro.freeq.ontology import SchemaOntology, build_type_domain_ontology

#: Base domain vocabulary; combined with suffixes to reach 100+ domains.
_DOMAIN_BASES = [
    "film", "music", "book", "tv", "theater", "game", "sport", "science",
    "art", "food", "travel", "fashion", "radio", "comic", "opera", "dance",
    "architecture", "aviation", "astronomy", "biology", "chemistry", "cycling",
    "economics", "education", "engineering", "geography", "geology", "history",
    "law", "medicine",
]
_DOMAIN_SUFFIXES = ["", "_awards", "_events", "_people", "_works"]


def domain_names(n_domains: int) -> list[str]:
    """Deterministic list of ``n_domains`` distinct domain names."""
    out: list[str] = []
    for suffix in _DOMAIN_SUFFIXES:
        for base in _DOMAIN_BASES:
            out.append(f"{base}{suffix}")
            if len(out) == n_domains:
                return out
    # Fall back to numbered domains beyond the combinatorial pool.
    index = 0
    while len(out) < n_domains:
        out.append(f"domain_{index}")
        index += 1
    return out


@dataclass
class FreebaseInstance:
    """The synthetic database plus its ontology layer and domain list."""

    database: StorageBackend
    ontology: SchemaOntology
    domains: list[str]


def _freebase_rows(
    rng: random.Random,
    domains: list[str],
    rows_per_entity_table: int,
    half: int,
    links_per_table: int,
) -> Iterator[LoadRow]:
    """The instance's ``(table, row)`` pairs, generated as they are loaded."""
    for domain in domains:
        person_ids = list(range(rows_per_entity_table))
        for i in person_ids:
            name = f"{rng.choice(names.FIRST_NAMES)} {rng.choice(names.SURNAMES)}"
            yield f"{domain}_person", {"id": i, "name": name}
        work_ids = list(range(rows_per_entity_table))
        for i in work_ids:
            title = " ".join(rng.sample(names.TITLE_WORDS, rng.choice([1, 2])))
            yield f"{domain}_work", {"id": i, "title": title}
        org_ids = list(range(half))
        for i in org_ids:
            org_name = f"{rng.choice(names.COMPANY_WORDS)} {rng.choice(names.COMPANY_WORDS)}"
            yield f"{domain}_org", {"id": i, "name": org_name}
        place_ids = list(range(half))
        for i in place_ids:
            yield f"{domain}_place", {"id": i, "name": rng.choice(names.PLACES)}
        for i in range(links_per_table):
            yield f"{domain}_person_work", {
                "id": i,
                "person_id": rng.choice(person_ids),
                "work_id": rng.choice(work_ids),
            }
            yield f"{domain}_work_org", {
                "id": i, "work_id": rng.choice(work_ids), "org_id": rng.choice(org_ids)
            }
            yield f"{domain}_org_place", {
                "id": i, "org_id": rng.choice(org_ids), "place_id": rng.choice(place_ids)
            }


def build_freebase(
    seed: int = 23,
    n_domains: int = 20,
    rows_per_entity_table: int = 12,
    links_per_table: int = 16,
    backend: str | StorageBackend = "memory",
    db_path: str | Path | None = None,
    shards: int | None = None,
) -> FreebaseInstance:
    """Build a domain-structured schema of ``7 * n_domains`` tables.

    ``backend``/``db_path`` select the storage engine; a persistent backend
    with existing rows at ``db_path`` skips row generation (the schema and
    ontology are deterministic, so they are always rebuilt in place).  Every
    requested domain must be populated in the stored instance; a mismatch
    raises ``ValueError``.
    """
    rng = random.Random(seed)
    schema = Schema()
    assignments: list[tuple[str, str, str, str]] = []
    domains = domain_names(n_domains)

    for domain in domains:
        person = f"{domain}_person"
        work = f"{domain}_work"
        org = f"{domain}_org"
        place = f"{domain}_place"
        schema.add_table(Table(person, [Attribute("name"), Attribute("id", textual=False)]))
        schema.add_table(Table(work, [Attribute("title"), Attribute("id", textual=False)]))
        schema.add_table(Table(org, [Attribute("name"), Attribute("id", textual=False)]))
        schema.add_table(Table(place, [Attribute("name"), Attribute("id", textual=False)]))
        schema.add_table(Table(f"{domain}_person_work", [Attribute("id", textual=False)]))
        schema.add_table(Table(f"{domain}_work_org", [Attribute("id", textual=False)]))
        schema.add_table(Table(f"{domain}_org_place", [Attribute("id", textual=False)]))
        schema.link(f"{domain}_person_work", person, "person_id")
        schema.link(f"{domain}_person_work", work, "work_id")
        schema.link(f"{domain}_work_org", work, "work_id")
        schema.link(f"{domain}_work_org", org, "org_id")
        schema.link(f"{domain}_org_place", org, "org_id")
        schema.link(f"{domain}_org_place", place, "place_id")
        assignments.extend(
            [
                (person, "name", "Person", domain),
                (work, "title", "CreativeWork", domain),
                (org, "name", "Organization", domain),
                (place, "name", "Place", domain),
            ]
        )

    db = create_backend(backend, schema, path=db_path, shards=shards)
    fp = _store.fingerprint(
        "freebase",
        seed=seed,
        n_domains=n_domains,
        rows_per_entity_table=rows_per_entity_table,
        links_per_table=links_per_table,
    )
    half = max(2, rows_per_entity_table // 2)
    per_domain = {
        "person": rows_per_entity_table,
        "work": rows_per_entity_table,
        "org": half,
        "place": half,
        "person_work": links_per_table,
        "work_org": links_per_table,
        "org_place": links_per_table,
    }
    expected = {
        f"{domain}_{suffix}": count
        for domain in domains
        for suffix, count in per_domain.items()
    }
    if not _store.try_reuse(db, db_path, "Freebase", fp, expected):
        # (On reuse try_reuse already built the index over the stored rows.)
        db.load(
            _freebase_rows(rng, domains, rows_per_entity_table, half, links_per_table)
        )
        # Fingerprint first: build_indexes() persists index postings keyed
        # on the content fingerprint, which must already see the dataset
        # identity.
        _store.mark_built(db, fp)
        db.build_indexes()
    # Domain groups (a balanced partition of ~sqrt(n) buckets) form the
    # intermediate ontology layer that keeps concept drill-down logarithmic.
    group_size = max(2, int(math.sqrt(len(domains))))
    groups = {
        domain: f"area_{index // group_size}" for index, domain in enumerate(domains)
    }
    ontology = build_type_domain_ontology(assignments, domain_groups=groups)
    return FreebaseInstance(database=db, ontology=ontology, domains=domains)


def freebase_workload(
    instance: FreebaseInstance,
    n_queries: int = 20,
    seed: int = 29,
    n_keywords: int = 2,
):
    """Multi-concept queries over random domains, with ground truth.

    ``n_keywords=2`` emits person+work queries over the 2-join chain;
    ``n_keywords=3`` adds an organization keyword over the 4-join chain —
    the query-complexity classes of Table 5.2 / Fig. 5.4.
    """
    from repro.core.keywords import KeywordQuery
    from repro.db.tokenizer import tokenize
    from repro.datasets.workload import WorkloadQuery
    from repro.user.oracle import IntendedInterpretation, value_spec

    if n_keywords not in (2, 3):
        raise ValueError("n_keywords must be 2 or 3")
    rng = random.Random(seed)
    db = instance.database
    out: list[WorkloadQuery] = []
    seen: set[str] = set()
    attempts = 0
    while len(out) < n_queries and attempts < n_queries * 60:
        attempts += 1
        domain = rng.choice(instance.domains)
        links = list(db.relation(f"{domain}_person_work"))
        if not links:
            continue
        link = rng.choice(links)
        person = db.relation(f"{domain}_person").get(link.get("person_id"))
        work = db.relation(f"{domain}_work").get(link.get("work_id"))
        if person is None or work is None:
            continue
        person_tokens = tokenize(person.get("name", ""))
        work_tokens = tokenize(work.get("title", ""))
        if not person_tokens or not work_tokens:
            continue
        surname = person_tokens[-1]
        title_word = rng.choice(work_tokens)
        if surname == title_word:
            continue
        terms = [surname, title_word]
        bindings = {
            0: value_spec(f"{domain}_person", "name"),
            1: value_spec(f"{domain}_work", "title"),
        }
        path: tuple[str, ...] = (
            f"{domain}_person",
            f"{domain}_person_work",
            f"{domain}_work",
        )
        if n_keywords == 3:
            work_orgs = [
                row
                for row in db.relation(f"{domain}_work_org")
                if row.get("work_id") == work.key
            ]
            if not work_orgs:
                continue
            org = db.relation(f"{domain}_org").get(work_orgs[0].get("org_id"))
            if org is None:
                continue
            org_tokens = tokenize(org.get("name", ""))
            if not org_tokens:
                continue
            org_word = org_tokens[0]
            if org_word in terms:
                continue
            terms.append(org_word)
            bindings[2] = value_spec(f"{domain}_org", "name")
            path = path + (f"{domain}_work_org", f"{domain}_org")
        text = " ".join(terms)
        if text in seen:
            continue
        seen.add(text)
        query = KeywordQuery.from_terms(terms)
        intended = IntendedInterpretation(bindings=bindings, template_path=path)
        out.append(
            WorkloadQuery(query, intended, "mc", f"person_work_{n_keywords}kw", "freebase")
        )
    return out
