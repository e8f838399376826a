"""The paper's core: Algorithm SETM, its variants, and rule generation.

Public names resolve on first access (PEP 562), so importing one engine
never loads the others.  Four engine functions share their module's
name (``setm``, ``setm_columnar``, ``setm_disk``, ``setm_sql``); the
package keeps the *function* bound under that name even after the
import system binds the submodule there.
"""

import sys
from types import ModuleType

from repro import _lazy_exports

#: Public name -> the module defining it.
_EXPORTS = {
    "nested_loop_mine": "repro.core.nested_loop",
    "nested_loop_mine_disk": "repro.core.nested_loop",
    "IterationStats": "repro.core.result",
    "MiningResult": "repro.core.result",
    "Pattern": "repro.core.result",
    "Rule": "repro.core.rules",
    "generate_rules": "repro.core.rules",
    "rules_as_paper_lines": "repro.core.rules",
    "setm": "repro.core.setm",
    "setm_columnar": "repro.core.setm_columnar",
    "setm_disk": "repro.core.setm_disk",
    "NativeBackend": "repro.core.setm_sql",
    "SQLBackend": "repro.core.setm_sql",
    "setm_sql": "repro.core.setm_sql",
    "Item": "repro.core.transactions",
    "ItemCatalog": "repro.core.transactions",
    "Transaction": "repro.core.transactions",
    "TransactionDatabase": "repro.core.transactions",
    "sales_rows_to_transactions": "repro.core.transactions",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Binding submodule ``repro.core.setm`` on the package would
        # shadow the ``setm`` engine function; bind the function.
        if (
            isinstance(value, ModuleType)
            and _EXPORTS.get(name) == value.__name__
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
