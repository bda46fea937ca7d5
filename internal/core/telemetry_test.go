package core

import (
	"testing"

	"repro/internal/feedback"
)

// TestFeedbackObserverRecordsEstimationError: EnableFeedbackObserver is
// idempotent, refresh cycles record q-errors of the maintenance plan's
// estimates while the views stay exact, and a served query adds observed
// cardinalities without scoring the serving optimizer's estimates.
func TestFeedbackObserverRecordsEstimationError(t *testing.T) {
	rt := buildServingRuntime(t, 0.002, 4)
	if rt.Feedback() != nil || rt.FeedbackStats() != (feedback.Stats{}) {
		t.Fatal("telemetry is on before EnableFeedbackObserver")
	}
	fb := rt.EnableFeedbackObserver()
	if rt.EnableFeedbackObserver() != fb || rt.Feedback() != fb {
		t.Fatal("a second EnableFeedbackObserver replaced the store")
	}
	for i := 0; i < 3; i++ {
		cycle(rt, int64(420+i))
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
	st := rt.FeedbackStats()
	if st.QCount == 0 || st.QTotal == 0 || st.Observations == 0 || st.DeltaKeys == 0 {
		t.Fatalf("three refresh cycles recorded no estimation error: %+v", st)
	}
	if st.QMedian < 1 || st.QP90 < st.QMedian || st.QMax < st.QP90 {
		t.Errorf("q-error summary out of order: %+v", st)
	}

	rt.EnableServing(ServeOptions{})
	if _, err := rt.Query(serveQueries[0]); err != nil {
		t.Fatal(err)
	}
	after := rt.FeedbackStats()
	if after.Observations <= st.Observations {
		t.Errorf("a served query observed nothing: %d observations before, %d after", st.Observations, after.Observations)
	}
	if after.QTotal != st.QTotal {
		t.Errorf("a served query recorded %d q-errors, want none", after.QTotal-st.QTotal)
	}
}
