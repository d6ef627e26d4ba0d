package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// digestIDs is how many IDs of each stream TestStreamDigests hashes.
const digestIDs = 200_000

// TestStreamDigests pins the streams the benchmark's workloads run, so a
// change to the sampler or the generators fails here, next to its cause,
// rather than as drifting golden constants in internal/cluster. Each
// digest is FNV-64a over the IDs as 8 little-endian bytes each.
func TestStreamDigests(t *testing.T) {
	cases := []struct {
		name string
		// src builds the stream at seed and returns it with the index of
		// its first hashed ID.
		src  func(seed int64) (Source, int, error)
		want [2]uint64 // seeds 1 and 2
	}{
		{
			// sim_paper: the paper's three phases at a quarter of the
			// trace. Its first 250 000 requests are the fill phase, which
			// draws no Zipf rank, so the digest starts at request phase I.
			name: "sim_paper",
			src: func(seed int64) (Source, int, error) {
				g, err := New(Config{
					TotalRequests: 1_000_000, PopulationSize: 10_000, Alpha: 0.8,
					OneTimerProb: 0.3, FillFraction: 0.25, Seed: seed,
				})
				if err != nil {
					return nil, 0, err
				}
				fillEnd, _ := g.Boundaries()
				return g, fillEnd, nil
			},
			want: [2]uint64{0x6b01e7d5d3f4715e, 0x733452258ecb0378},
		},
		{
			// sim_shift_open: five epochs of 100 000; the digest covers two.
			name: "sim_shift_open",
			src: func(seed int64) (Source, int, error) {
				g, err := NewShift(ShiftConfig{
					TotalRequests: 500_000, Period: 100_000, Population: 10_000,
					Alpha: 0.8, OneTimerProb: 0.3, Seed: seed,
				})
				return g, 0, err
			},
			want: [2]uint64{0x003c58ff79e818c5, 0xf8acc95570e6b53a},
		},
		{
			// farm_churn: one epoch as long as the stream, a stationary
			// Zipf stream with one-timers.
			name: "farm_churn",
			src: func(seed int64) (Source, int, error) {
				g, err := NewShift(ShiftConfig{
					TotalRequests: digestIDs, Period: digestIDs, Population: 10_000,
					Alpha: 0.8, OneTimerProb: 0.3, Seed: seed,
				})
				return g, 0, err
			},
			want: [2]uint64{0x25cc90336ae9c69d, 0x84cda17b4c53f66b},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i, seed := range []int64{1, 2} {
				src, skip, err := tc.src(seed)
				if err != nil {
					t.Fatal(err)
				}
				if got := streamDigest(t, src, skip); got != tc.want[i] {
					t.Errorf("seed %d: digest %#x, want %#x", seed, got, tc.want[i])
				}
			}
		})
	}
}

// streamDigest skips skip IDs of src and hashes the next digestIDs.
func streamDigest(t *testing.T, src Source, skip int) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < skip+digestIDs; i++ {
		obj, ok := src.Next()
		if !ok {
			t.Fatalf("stream ended after %d IDs", i)
		}
		if i < skip {
			continue
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(obj))
		h.Write(buf[:])
	}
	return h.Sum64()
}
