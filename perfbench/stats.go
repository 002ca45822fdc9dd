package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// minBeyond is how many samples must lie above a reported percentile; a
// percentile with fewer is noise and the run is rejected instead.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It fails
// when fewer than minBeyond samples lie above the returned rank, so a short
// run cannot report a tail it did not observe.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	idx := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if n == 0 || n-1-idx < minBeyond {
		return 0, fmt.Errorf("%d samples cannot support p%g (need %d above it)", n, q*100, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[idx], nil
}

// series is a growable sample set safe for concurrent adds; the sampler
// goroutine and transport loops both feed per-layer series.
type series struct {
	mu sync.Mutex
	xs []float64
}

func (s *series) add(v float64) {
	s.mu.Lock()
	s.xs = append(s.xs, v)
	s.mu.Unlock()
}

func (s *series) samples() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

// pcts returns the p50 and p99 of s; a percentile with too few samples
// beyond it reads 0. Per-layer numbers are diagnostics, so a thin series does
// not fail the run; end-to-end percentiles go through percentile directly.
func (s *series) pcts() (p50, p99 float64) {
	xs := s.samples()
	p50, _ = percentile(xs, 0.5)
	p99, _ = percentile(xs, 0.99)
	return
}

func (s *series) max() float64 {
	m := 0.0
	for _, v := range s.samples() {
		m = math.Max(m, v)
	}
	return m
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
