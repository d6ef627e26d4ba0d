package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/workload"
)

func TestBinaryRoundTrip(t *testing.T) {
	objs := []ids.ObjectID{1, 5, 1 << 40, 0, 42, 42, 7}
	var buf bytes.Buffer
	if err := Write(&buf, NewSliceSource(objs)); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total() != len(objs) {
		t.Fatalf("Total = %d, want %d", r.Total(), len(objs))
	}
	got := Drain(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(got) != len(objs) {
		t.Fatalf("drained %d, want %d", len(got), len(objs))
	}
	for i := range objs {
		if got[i] != objs[i] {
			t.Errorf("request %d = %v, want %v", i, got[i], objs[i])
		}
	}
}

func TestBinaryRoundTripGeneratedWorkload(t *testing.T) {
	gen, err := workload.New(workload.DefaultConfig(5000))
	if err != nil {
		t.Fatal(err)
	}
	want := Drain(gen)
	gen.Reset()

	var buf bytes.Buffer
	if err := Write(&buf, gen); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := Drain(r)
	if len(got) != len(want) {
		t.Fatalf("drained %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestBadMagic(t *testing.T) {
	_, err := NewReader(strings.NewReader("not a trace file at all"))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	if _, err := NewReader(strings.NewReader("ADC")); err == nil {
		t.Error("truncated header must fail")
	}
}

func TestTruncatedBody(t *testing.T) {
	objs := []ids.ObjectID{1, 2, 3, 4, 5}
	var buf bytes.Buffer
	if err := Write(&buf, NewSliceSource(objs)); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-2]
	r, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	_ = Drain(r)
	if r.Err() == nil {
		t.Error("truncated body must surface an error via Err()")
	}
}

// forged returns a binary trace header declaring count requests, followed
// by body.
func forged(count uint64, body ...byte) []byte {
	b := binary.LittleEndian.AppendUint64(append([]byte{}, magic[:]...), count)
	return append(b, body...)
}

// TestForgedCount: the request count is read from the file. One no int
// holds is refused by NewReader; one far beyond the body reserves at most
// MaxPrealloc entries and drains to a truncation error.
func TestForgedCount(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(forged(math.MaxUint64))); err == nil {
		t.Fatal("a count above MaxInt must fail")
	}
	r, err := NewReader(bytes.NewReader(forged(1<<40, 3, 1)))
	if err != nil {
		t.Fatal(err)
	}
	got := Drain(r)
	if !slices.Equal(got, []ids.ObjectID{3, 1}) || cap(got) > MaxPrealloc || r.Err() == nil {
		t.Errorf("drained %v (cap %d, err %v), want [3 1], cap ≤ %d and a truncation error", got, cap(got), r.Err(), MaxPrealloc)
	}
}

func TestSliceSourceReset(t *testing.T) {
	s := NewSliceSource([]ids.ObjectID{1, 2})
	if got := Drain(s); len(got) != 2 {
		t.Fatalf("first drain = %v", got)
	}
	if _, ok := s.Next(); ok {
		t.Error("exhausted source must report !ok")
	}
	s.Reset()
	if got := Drain(s); len(got) != 2 {
		t.Errorf("post-reset drain = %v", got)
	}
}

// FuzzTraceReaders feeds bytes to the trace reader (NewReader + Drain). It
// may not panic, and whatever it accepts as a valid stream must survive
// Write then NewReader unchanged. Some seeds (the second one and the text-*
// corpus files) are in the retired one-ID-per-line text format, which the
// binary reader must survive too.
func FuzzTraceReaders(f *testing.F) {
	f.Add(forged(3, 1, 2, 3))
	f.Add([]byte("# ADC trace\n1\n2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := NewReader(bytes.NewReader(data)); err == nil {
			objs := Drain(r)
			if r.Err() == nil && len(objs) == r.Total() {
				roundTrip(t, objs)
			}
		}
	})
}

// roundTrip writes objs as a binary trace and demands it reads back equal.
func roundTrip(t *testing.T, objs []ids.ObjectID) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, NewSliceSource(objs)); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := Drain(r); r.Err() != nil || !slices.Equal(got, objs) {
		t.Fatalf("Write then NewReader gave %v (err %v), want %v", got, r.Err(), objs)
	}
}
