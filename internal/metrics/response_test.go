package metrics

import (
	"math"
	"testing"
)

func TestRecordResponse(t *testing.T) {
	c := NewCollector(WithSampleEvery(0))
	for _, v := range []int64{100, 200, 300} {
		c.RecordResponse(v)
	}
	s := c.Summary()
	if math.Abs(s.MeanResponse-200) > 1e-12 || s.MaxResponse != 300 {
		t.Errorf("summary response = %v/%v", s.MeanResponse, s.MaxResponse)
	}
}

func TestSummaryWithoutResponses(t *testing.T) {
	c := NewCollector(WithSampleEvery(0))
	c.Record(true, 2, 1)
	s := c.Summary()
	if s.MeanResponse != 0 || s.MaxResponse != 0 {
		t.Errorf("response fields must be zero without virtual time: %+v", s)
	}
}
