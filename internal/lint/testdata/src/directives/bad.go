package directives

import "errors"

func fallible() error { return errors.New("boom") }

func malformed() {
	//cosmo:lint-ignore dropped-error
	fallible() // the reasonless directive above suppresses nothing: two findings here

	//cosmo:lint-ignore
	fallible() // directive names no check: two findings here
}

func stale() {
	//cosmo:lint-ignore dropped-errors a typo names no registered check
	fallible() // the unknown-check directive above suppresses nothing: two findings here
}
