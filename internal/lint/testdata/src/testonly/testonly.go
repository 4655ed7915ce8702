// Package testonly is the testonly fixture. The test loads it under an
// import path that contains /internal/, and testonly_test.go is the only
// file that references the names flagged here.
package testonly

// OnlyTested is called by the fixture's test file alone.
func OnlyTested() int { return 1 } // want `testonly.OnlyTested is exported from an internal package but no non-test code references it`

// Recurse calls itself, which is not a caller.
func Recurse(n int) int { // want `testonly.Recurse is exported`
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Widget is an exported type.
type Widget struct{ n int }

// Count is a method only the test file calls.
func (w *Widget) Count() int { return w.n } // want `testonly.Widget.Count is exported`

// String satisfies fmt.Stringer, which the fixture does not import.
func (w Widget) String() string { return "widget" }

// Sizer is an interface declared in the loaded packages.
type Sizer interface{ Size() int }

// Size satisfies Sizer, so callers reach it through the interface.
func (w *Widget) Size() int { return w.n }

// Box is a generic type.
type Box[T any] struct{ v T }

// Get is called through an instantiation of Box.
func (b *Box[T]) Get() T { return b.v }

// Callback is referenced as a value, never called directly.
func Callback() int { return 3 }

// Hook is shared by several packages' tests.
//
//anchorlint:ignore testonly fixture hook that the tests of several packages call
func Hook() {}

// hidden is unexported, so its exported method is outside the rule.
type hidden struct{}

// Exported is a method of an unexported type.
func (hidden) Exported() {}

var hooks = []func() int{Callback}

func use() int {
	b := &Box[int]{v: 2}
	return b.Get() + len(hooks)
}

var _ = use
