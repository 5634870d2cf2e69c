package ursa_test

import (
	"fmt"

	"ursa/internal/experiments"
)

// ExampleLookup finds an experiment by the id ursa-bench takes on its command
// line.
func ExampleLookup() {
	e, ok := experiments.Lookup("table1")
	fmt.Println(ok, e.Paper)
	// Output: true Table 1
}
