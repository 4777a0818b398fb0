// Package lib is the dead-export scan's fixture: Dead and OnlyTested
// must be flagged, everything else is referenced.
package lib

// T is used by cmd/app. Its field shares Dead's name, and its method is
// never called; neither keeps anything alive nor is reported.
type T struct{ Dead int }

// Unused is a method, and the scan skips methods.
func (T) Unused() {}

// Used is called from cmd/app.
func Used() int { return helper() + Internal }

// Internal is referenced only inside this package.
const Internal = 1

func helper() int { return 2 }

// Dead is referenced by nothing.
func Dead() {}

// OnlyTested is referenced by lib_test.go only.
var OnlyTested = 3
