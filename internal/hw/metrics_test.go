package hw_test

import (
	"testing"

	"vortex/internal/hw"
)

// TestPerArrayMetricsNamespacing checks the metric namespaces: a
// per-array prefix has the documented hw.circuit.<id>. shape, two arrays
// get disjoint prefixes, and every caller shares one cached bundle.
func TestPerArrayMetricsNamespacing(t *testing.T) {
	if got, want := hw.ArrayPrefix("a0"), "hw.circuit.a0."; got != want {
		t.Fatalf("ArrayPrefix = %q, want %q", got, want)
	}
	if hw.ArrayPrefix("a0") == hw.ArrayPrefix("a1") {
		t.Fatal("different arrays share one metric prefix")
	}
	if hw.CrossbarMetrics() != hw.CrossbarMetrics() {
		t.Fatal("repeated lookup did not hit the cache")
	}
}
