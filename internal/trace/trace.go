// Package trace persists request streams so experiments can be repeated
// bit-for-bit — the reproducibility concern that pushed the paper's authors
// from ad-hoc server logs to a synthetic benchmark ("a lack of description
// that could allow a third person to repeat our test cases", §V.1.6).
//
// The format is a fixed header followed by unsigned-varint object IDs.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/adc-sim/adc/internal/ids"
	"github.com/adc-sim/adc/internal/workload"
)

// magic identifies the binary trace format ("ADCTRC" + version byte).
var magic = [8]byte{'A', 'D', 'C', 'T', 'R', 'C', 0, 1}

// ErrBadMagic marks a stream that is not a binary ADC trace.
var ErrBadMagic = errors.New("trace: bad magic (not an ADC trace file)")

// MaxPrealloc caps the capacity a reader reserves up front from a trace's
// declared request count. The count comes from a file header, so a forged
// one must not turn into a huge allocation before the body backs it up;
// longer traces grow by append.
const MaxPrealloc = 1 << 20

// Write encodes the full contents of src to w in the binary format.
func Write(w io.Writer, src workload.Source) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(src.Total()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("trace: write count: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	written := 0
	for {
		obj, ok := src.Next()
		if !ok {
			break
		}
		n := binary.PutUvarint(buf[:], uint64(obj))
		if _, err := bw.Write(buf[:n]); err != nil {
			return fmt.Errorf("trace: write request %d: %w", written, err)
		}
		written++
	}
	if written != src.Total() {
		return fmt.Errorf("trace: source emitted %d requests, declared %d", written, src.Total())
	}
	return bw.Flush()
}

// Reader replays a binary trace as a workload.Source.
type Reader struct {
	br    *bufio.Reader
	total int
	read  int
	err   error
}

var _ workload.Source = (*Reader)(nil)

// NewReader validates the header and prepares replay.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if got != magic {
		return nil, ErrBadMagic
	}
	var cnt [8]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, fmt.Errorf("trace: read count: %w", err)
	}
	total := binary.LittleEndian.Uint64(cnt[:])
	if total > math.MaxInt {
		return nil, fmt.Errorf("trace: header declares %d requests, more than an int holds", total)
	}
	return &Reader{br: br, total: int(total)}, nil
}

// Total implements workload.Source.
func (r *Reader) Total() int { return r.total }

// Next implements workload.Source.
func (r *Reader) Next() (ids.ObjectID, bool) {
	if r.err != nil || r.read >= r.total {
		return 0, false
	}
	v, err := binary.ReadUvarint(r.br)
	if err != nil {
		r.err = fmt.Errorf("trace: read request %d: %w", r.read, err)
		return 0, false
	}
	r.read++
	return ids.ObjectID(v), true
}

// Err returns the first decoding error encountered by Next, if any.
func (r *Reader) Err() error { return r.err }

// SliceSource replays an in-memory request list. It is also the unit-test
// workhorse for driving clusters with hand-crafted request sequences.
type SliceSource struct {
	objs []ids.ObjectID
	pos  int
}

var _ workload.SliceBacked = (*SliceSource)(nil)

// NewSliceSource wraps objs; the slice is not copied.
func NewSliceSource(objs []ids.ObjectID) *SliceSource {
	return &SliceSource{objs: objs}
}

// Next implements workload.Source.
func (s *SliceSource) Next() (ids.ObjectID, bool) {
	if s.pos >= len(s.objs) {
		return 0, false
	}
	obj := s.objs[s.pos]
	s.pos++
	return obj, true
}

// Total implements workload.Source.
func (s *SliceSource) Total() int { return len(s.objs) }

// Rest implements workload.SliceBacked: the unread requests, not a copy.
func (s *SliceSource) Rest() ([]ids.ObjectID, bool) {
	rest := s.objs[s.pos:]
	s.pos = len(s.objs)
	return rest, true
}

// Reset rewinds the source for another replay.
func (s *SliceSource) Reset() { s.pos = 0 }

// Drain reads every remaining request from src into a slice.
func Drain(src workload.Source) []ids.ObjectID {
	out := make([]ids.ObjectID, 0, min(src.Total(), MaxPrealloc))
	for {
		obj, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, obj)
	}
}
