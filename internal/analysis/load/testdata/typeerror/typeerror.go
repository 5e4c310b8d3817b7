// Package typeerror is golden input for the loader's type-error path: its
// one function returns a string where an int is declared.
package typeerror

func Count() int {
	return "three"
}
