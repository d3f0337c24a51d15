// Package suppressedge exercises the declaration-scope edge cases of
// //gridvolint:ignore: nested declarations and closures inside a
// suppressed function, directives on methods versus their receiver
// types, and directives inside a grouped declaration.
package suppressedge

// A decl-scope directive on a function covers the whole declaration:
// statements, nested var declarations, and closures alike.
//
//gridvolint:ignore floatcmp testdata exercise: decl scope must cover nested declarations and closures
func nestedCovered(a, b float64) bool {
	eq := func() bool {
		return a == b
	}
	var inner = a == b
	return eq() || inner
}

// A directive on the receiver's type declaration does NOT leak into the
// type's methods: each declaration carries its own scope. Covering no
// finding of its own, the directive is stale.
//
//gridvolint:ignore floatcmp testdata exercise: type decl scope must not reach into methods
type pair struct{ x, y float64 } // want-above "stale suppression: no floatcmp finding"

func (p pair) equal() bool {
	return p.x == p.y // want "exact floating-point"
}

// A directive on the method itself does suppress the method body.
//
//gridvolint:ignore floatcmp testdata exercise: method decl scope covers the method body
func (p pair) equalSuppressed() bool {
	return p.x == p.y
}

// A decl-scope directive on a grouped var declaration covers every spec
// in the group.
//
//gridvolint:ignore floatcmp testdata exercise: grouped decl scope covers all specs
var (
	ax, bx   = 1.5, 2.5
	grouped  = ax == bx
	grouped2 = bx == ax
)

// Outside any declaration's doc comment, line scope still applies: own
// line plus the next.
func lineScoped(a, b float64) (bool, bool) {
	//gridvolint:ignore floatcmp testdata exercise: line scope covers the following line only
	first := a == b
	second := a == b // want "exact floating-point"
	return first, second
}
