"""Towers of finite split extensions built from relation modules.

The package constructs chains of finite groups G_{k+1} = V_{k+1} ⋊ G_k
where V_{k+1} is a quotient of the relation module of G_k over a fresh
prime, tracks word orders against a summable budget, and emits
machine-checkable certificates for every structural claim: kernel
dimensions, fixed-space formulas, order preservation, normal-subgroup
classification, growth tables and graded descending chains.
"""

from .certificate import Certificate, CheckResult
from .linalg import PrimeField, Subspace, kernel_basis, matrix, rref, solve_batch
from .words import OrderBudget, Word, enumerate_words, fox_vector
from .groups import GroupHandle, TableGroup, word_image
from .gmodule import GModule
from .extension import ExtElement, ExtensionGroup
from .relmod import (RelationModule, magnus_pair, relation_module,
                     relator_power_image)
from .forge import (ForgeInput, ForgeResult, SubgroupData, build_module,
                    compute_delta, verify_conclusions)
from .tower import (TowerConfig, TowerState, build, init_tower, load_tower,
                    save_tower, step)

__version__ = "0.1.0"
