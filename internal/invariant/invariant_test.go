package invariant

import (
	"math"
	"strings"
	"testing"
)

// capture installs a recording handler for the duration of the test and
// returns the slice of violations observed.
func capture(t *testing.T) *[]string {
	t.Helper()
	var got []string
	prev := SetHandler(func(msg string) { got = append(got, msg) })
	t.Cleanup(func() { SetHandler(prev) })
	return &got
}

func TestChecksPassOnValidValues(t *testing.T) {
	got := capture(t)
	Finite("f", 1.5)
	NonNegative("n", 0)
	Positive("p", 1e-12)
	Conformance01("c", 0)
	Conformance01("c", 1)
	Conformance01("c", 0.5)
	InRange("r", 3, 3, 3)
	True("b", true)
	if len(*got) != 0 {
		t.Fatalf("unexpected violations: %v", *got)
	}
}

func TestChecksFailOnInvalidValues(t *testing.T) {
	cases := []struct {
		name string
		run  func()
		want string
	}{
		{"finite-nan", func() { Finite("x", math.NaN()) }, "non-finite"},
		{"finite-inf", func() { Finite("x", math.Inf(1)) }, "non-finite"},
		{"nonneg", func() { NonNegative("x", -0.001) }, "negative"},
		{"nonneg-nan", func() { NonNegative("x", math.NaN()) }, "negative or non-finite"},
		{"positive", func() { Positive("x", 0) }, "non-positive"},
		{"conf-low", func() { Conformance01("x", -1e-9) }, "outside [0, 1]"},
		{"conf-high", func() { Conformance01("x", 1.0000001) }, "outside [0, 1]"},
		{"conf-nan", func() { Conformance01("x", math.NaN()) }, "outside [0, 1]"},
		{"range", func() { InRange("x", 5, 0, 4) }, "outside"},
		{"true", func() { True("x", false) }, "condition violated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := capture(t)
			tc.run()
			if len(*got) != 1 {
				t.Fatalf("want 1 violation, got %v", *got)
			}
			if !strings.Contains((*got)[0], tc.want) {
				t.Fatalf("violation %q does not mention %q", (*got)[0], tc.want)
			}
			if !strings.Contains((*got)[0], "x") {
				t.Fatalf("violation %q does not name the checked value", (*got)[0])
			}
		})
	}
}

func TestDefaultHandlerPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("default handler did not panic")
		}
		if !strings.Contains(r.(string), "invariant:") {
			t.Fatalf("panic value %v lacks invariant prefix", r)
		}
	}()
	True("boom", false)
}

func TestSetHandlerRestoresDefault(t *testing.T) {
	prev := SetHandler(func(string) {})
	SetHandler(nil) // nil restores the panicking default
	defer SetHandler(prev)
	defer func() {
		if recover() == nil {
			t.Fatal("restored default handler did not panic")
		}
	}()
	True("boom", false)
}
