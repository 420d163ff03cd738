// Package doccovfix is a simlint test fixture for doc-coverage: each
// //want: line declares an exported symbol without a doc comment; the
// unmarked ones are documented (on the declaration, on the group, or by a
// trailing comment), unexported, or methods of unexported types, and must
// stay clean.
package doccovfix

func Bare() {} //want:doc-coverage

type Shape struct { //want:doc-coverage
	Sides int
}

func (s Shape) Area() int { return s.Sides } //want:doc-coverage

var Limit = 2 + //want:doc-coverage
	3

// Documented carries a doc comment.
func Documented() {}

// Sizes documents every spec of its group.
const (
	Small = 1
	Large = 2
)

const (
	// Medium is documented on the spec.
	Medium = 3
	Huge   = 4 // Huge is documented by a trailing comment.
)

type hidden struct{}

func (hidden) Exported() {}

func unexported() {}
