"""Penalized classification-tree selection with explicit variable-selection
penalties, exhaustive desk-scale oracles, and a simulation-study harness."""

from .designs import (Dataset, DesignSpec, MarginSpec, bayes_predict, bayes_risk,
                      eta, generate, load_dataset, margin_holds, margin_mass,
                      save_dataset)
from .grow import GrowLimits, best_split, grow_maximal
from .oracle import (ResourceCapError, brute_force_best_subtree, catalan,
                     class_count, enumerate_classes, erm_in_class,
                     exhaustive_select, shattering_count)
from .penalties import (CVConfig, GeyPenalty, LinearPenalty,
                        MarginAdaptivePenalty, MinCombinedPenalty, NobelPenalty,
                        VCPenalty, cv_select_alpha, penalty_value, select_tree)
from .prune import (PrunedSequence, best_in_sequence, sequence_to_csv,
                    subtree_at_alpha, weakest_link)
from .tree import (ClassDescriptor, Internal, Leaf, TreeClassifier,
                   empirical_risk, is_pruned_subtree, leaf, loss_estimate, stump,
                   tree_from_text, tree_to_text)

__version__ = "0.1.0"
