package sqlmini

// The unexported row types, for wiretypes_test.go: it needs the blob codec of
// remote/workload, which imports this package, so it is an external test.
type (
	AggState = aggState
	GroupRow = groupRow
)
