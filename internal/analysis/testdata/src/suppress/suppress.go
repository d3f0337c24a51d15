// Package suppress is golden testdata for the //gridvolint:ignore
// directive machinery, exercised through the floatcmp check.
package suppress

// inlineSuppressed carries a directive on the line above the finding.
func inlineSuppressed(a, b float64) bool {
	//gridvolint:ignore floatcmp golden-test exception: bit identity intended
	return a == b
}

// declSuppressed is covered by a doc-comment directive for its whole
// body.
//
//gridvolint:ignore floatcmp golden-test exception: whole function compares bitwise
func declSuppressed(a, b float64) bool {
	if a == b {
		return true
	}
	return a != b
}

// unknownCheck names a check that does not exist: the directive itself
// becomes a diagnostic and nothing is suppressed.
func unknownCheck(a, b float64) bool {
	//gridvolint:ignore nosuchcheck the check name is wrong
	// want-above "malformed suppression"
	return a == b // want "exact floating-point == comparison"
}

// missingReason omits the mandatory reason: also malformed, also not
// suppressing.
func missingReason(a, b float64) bool {
	//gridvolint:ignore floatcmp
	// want-above "malformed suppression"
	return a == b // want "exact floating-point == comparison"
}

// wrongCheck suppresses a different check than the one that fires, so
// its directive is stale as well.
func wrongCheck(a, b float64) bool {
	//gridvolint:ignore maporder golden-test exception: wrong check on purpose
	return a == b // want "exact floating-point == comparison" // want-above "stale suppression: no maporder finding"
}

// outOfRange sits too far above the finding to cover it, so its
// directive is stale as well.
func outOfRange(a, b float64) bool {
	//gridvolint:ignore floatcmp golden-test exception: two lines up, covers nothing
	_ = a         // want-above "stale suppression: no floatcmp finding"
	return a == b // want "exact floating-point == comparison"
}

// perfunctoryReason carries a one-word reason: enough for the runtime
// suppression filter, but the -audit inventory flags it as perfunctory.
func perfunctoryReason(a, b float64) bool {
	//gridvolint:ignore floatcmp intended
	return a == b
}
