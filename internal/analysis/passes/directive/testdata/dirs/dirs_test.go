package dirs

import "testing"

// An in-package test gives the package a test variant that holds dirs.go
// again; suite's tests load it that way.
func TestLoads(t *testing.T) {}
