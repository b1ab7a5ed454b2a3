package std_test

import (
	"testing"

	"distsketch/internal/lint/analysis"
	"distsketch/internal/lint/std"
)

func TestNilness(t *testing.T) {
	analysis.RunTest(t, "testdata/src/nilness", std.Nilness)
}

func TestUnusedwrite(t *testing.T) {
	analysis.RunTest(t, "testdata/src/unusedwrite", std.Unusedwrite)
}
