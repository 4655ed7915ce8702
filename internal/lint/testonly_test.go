package lint_test

import (
	"strings"
	"testing"

	"anchor/internal/lint"
	"anchor/internal/lint/linttest"
)

// TestTestOnly runs the testonly fixture under an internal/ import path:
// a function, a self-recursive function and a method that only the
// fixture's test file references are flagged; a String method, an
// interface implementation, a generic method called through an
// instantiation, a function used as a value, names outside the rule's
// scope and a name with a directive are not.
func TestTestOnly(t *testing.T) {
	linttest.Run(t, lint.TestOnly, "testdata/src/testonly", "anchorlint.test/internal/testonly")
}

// TestTestOnlyOutsideInternal checks that the rule covers internal/
// packages only: the module's public API may serve callers outside it.
func TestTestOnlyOutsideInternal(t *testing.T) {
	for _, d := range linttest.Collect(t, lint.TestOnly, "testdata/src/testonly", "anchorlint.test/testonly") {
		// With nothing to suppress, the fixture's directive is stale.
		if !strings.Contains(d.Message, "suppresses nothing (rules testonly)") {
			t.Errorf("unexpected diagnostic outside internal/: %s", d)
		}
	}
}
