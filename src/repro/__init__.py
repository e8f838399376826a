"""repro — a full reproduction of Houtsma & Swami's SETM (ICDE 1995).

*Set-Oriented Mining for Association Rules in Relational Databases*
expressed association-rule mining as plain SQL — sorting, merge-scan
joins, ``GROUP BY``/``HAVING`` — and showed the resulting Algorithm SETM
to be simple, fast, and stable across minimum-support values.

This package rebuilds the whole system:

* :mod:`repro.core` — Algorithm SETM in four guises (in-memory tuples,
  columnar arrays, SQL, paged-disk), the nested-loop strategy it
  rejects, and rule generation;
* :mod:`repro.sql` + :mod:`repro.relational` — a SQL subset engine, so
  the paper's queries run verbatim (``sqlite3`` is supported too);
* :mod:`repro.storage` — a simulated disk, buffer pool, external sort,
  merge-scan join and B+-tree matching the paper's cost-model constants;
* :mod:`repro.baselines` — AIS, Apriori, and a brute-force oracle;
* :mod:`repro.data` — the Figure 1 example, a generator calibrated to the
  paper's retail data set, Quest workloads, and the hypothetical analysis
  database;
* :mod:`repro.analysis` — the Section 3.2 / 4.3 cost models, to the page;
* :mod:`repro.serve` — mining as a service: a long-lived JSON/HTTP
  server (``python -m repro serve``) with admission control, shared
  session caches, and graceful drain.

The public API is the typed session layer: a :class:`MiningConfig`
(validated support as fraction *or* absolute count, confidence,
``max_length``, engine options) handed to a :class:`Miner` facade, which
resolves the engine through the capability-aware :mod:`repro.registry`
and caches the :class:`MiningResult` for selective follow-up queries.

Quickstart::

    from repro import Miner, MiningConfig, TransactionDatabase

    db = TransactionDatabase([(1, ["bread", "butter", "milk"]),
                              (2, ["bread", "butter"])])
    miner = Miner(db)
    config = MiningConfig(support=0.5, confidence=0.9)
    result = miner.frequent_itemsets(config)
    rules = miner.rules(config)
    print(miner.explain(config))          # the resolved plan, no mining
    miner.support_of("bread", "butter")   # post-hoc query, no re-mining

The flat pre-1.1 API (:func:`mine_frequent_itemsets`,
:func:`mine_association_rules`, ``ALGORITHMS``) remains as thin
compatibility wrappers over the session layer.

All errors raised at the API boundary derive from
:class:`~repro.errors.ReproError`; see :mod:`repro.errors`.
"""

import sys
from importlib import import_module


def _lazy_exports(package: str, exports: dict[str, str]):
    """PEP 562 ``__getattr__``/``__dir__`` for ``package``'s public names.

    ``exports`` maps each name to the module defining it; a name is
    imported on first access and then cached in the package namespace.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


#: Public name -> the module defining it.  Names resolve on first
#: access, so ``import repro`` loads nothing an entry point does not
#: use: a ``setm-columnar`` mine never imports the SQL, paged storage
#: or baseline engines.
_EXPORTS = {
    "ALGORITHMS": "repro.api",
    "mine_association_rules": "repro.api",
    "mine_frequent_itemsets": "repro.api",
    "MiningConfig": "repro.config",
    "IterationStats": "repro.core.result",
    "MiningResult": "repro.core.result",
    "Rule": "repro.core.rules",
    "generate_rules": "repro.core.rules",
    "setm": "repro.core.setm",
    "setm_columnar": "repro.core.setm_columnar",
    "ItemCatalog": "repro.core.transactions",
    "Transaction": "repro.core.transactions",
    "TransactionDatabase": "repro.core.transactions",
    "EngineOptionError": "repro.errors",
    "InvalidConfigError": "repro.errors",
    "InvalidSupportError": "repro.errors",
    "ReproError": "repro.errors",
    "ServeError": "repro.errors",
    "UnknownAlgorithmError": "repro.errors",
    "Miner": "repro.miner",
    "EngineSpec": "repro.registry",
    "available_engines": "repro.registry",
    "engine_specs": "repro.registry",
    "get_engine": "repro.registry",
    "register_engine": "repro.registry",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__version__ = "1.11.0"

__all__ = [
    "ALGORITHMS",
    "EngineOptionError",
    "EngineSpec",
    "InvalidConfigError",
    "InvalidSupportError",
    "ItemCatalog",
    "IterationStats",
    "Miner",
    "MiningConfig",
    "MiningResult",
    "ReproError",
    "Rule",
    "ServeError",
    "Transaction",
    "TransactionDatabase",
    "UnknownAlgorithmError",
    "__version__",
    "available_engines",
    "engine_specs",
    "generate_rules",
    "get_engine",
    "mine_association_rules",
    "mine_frequent_itemsets",
    "register_engine",
    "setm",
    "setm_columnar",
]
