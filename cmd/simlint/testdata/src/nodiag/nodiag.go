// Package nodiagfix is a simlint test fixture about which the compiler
// reports nothing under -m: its one function is never inlined and never
// allocates. hot-escape must call a silent build drift, not a clean pass.
package nodiagfix

//go:noinline
func idle() {}
