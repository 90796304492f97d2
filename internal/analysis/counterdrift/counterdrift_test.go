package counterdrift_test

import (
	"testing"

	"twolm/internal/analysis/analysistest"
	"twolm/internal/analysis/counterdrift"
)

// TestDrift: a seeded fake field missing from Add/Sub/String/Sample
// and a hand-rolled merge are both caught.
func TestDrift(t *testing.T) {
	diags := analysistest.Run(t, counterdrift.Analyzer, "drift")
	// One finding per missing pipeline stage plus one for the merge.
	if len(diags) != 5 {
		t.Errorf("got %d diagnostics, want 5 (Add, Sub, String, Sample, MergeCounters)", len(diags))
	}
}

// TestSampleDrift: a field the Sample conversion forgets is caught even
// when Add, Sub and String carry it — it would otherwise drop out of
// every counter trace.
func TestSampleDrift(t *testing.T) {
	diags := analysistest.Run(t, counterdrift.Analyzer, "driftsample")
	if len(diags) != 1 {
		t.Errorf("got %d diagnostics, want 1 (Sample)", len(diags))
	}
}

// TestClean: the compliant shape produces no findings.
func TestClean(t *testing.T) {
	if diags := analysistest.Run(t, counterdrift.Analyzer, "driftok"); len(diags) != 0 {
		t.Errorf("clean fixture produced %d diagnostics", len(diags))
	}
}

// TestMissingMethods: dropping Sub and String is itself an error.
func TestMissingMethods(t *testing.T) {
	analysistest.Run(t, counterdrift.Analyzer, "driftnostring")
}
