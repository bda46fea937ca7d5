package exec

// Exported views of operator internals that the shard plan lowering
// (internal/shard) must share with the local executor. Lowering re-derives,
// per plan node, exactly the decisions Run makes — join-key split, projection
// index resolution, schema no-op detection — so a scattered pipeline emits
// rows in the same order as single-node execution.
// Keeping these as thin wrappers (rather than duplicating the logic in the
// shard package) makes divergence impossible.

import "repro/internal/algebra"

// SplitJoinPred separates equi-conjuncts usable as hash keys from residual
// conjuncts, given the two input schemas (see splitJoinPred).
func SplitJoinPred(pred algebra.Pred, ls, rs algebra.Schema) (lCols, rCols []int, residual []algebra.Cmp) {
	return splitJoinPred(pred, ls, rs)
}

// ProjIndexes resolves the target schema's columns in the input schema,
// panicking if a target column is missing (see projIndexes).
func ProjIndexes(in, target algebra.Schema) []int { return projIndexes(in, target) }

// SchemasEqual reports whether two schemas are identical column-for-column
// (the condition under which projectTo is a no-op).
func SchemasEqual(a, b algebra.Schema) bool { return schemaEqual(a, b) }

// BroadcastMax returns the build-side row count up to which the shard
// coordinator ships a join's build side inline with scatter requests; above
// it the query falls back to local execution.
func BroadcastMax() int { return broadcastMaxBuild }
