package main

import (
	"math"
	"math/bits"
)

// histogram is a fixed-bucket log-linear latency histogram over
// nanoseconds: each power of two is split into histSub linear buckets,
// so a bucket is at most 1/128 (<0.8 %) of its value wide. Recording is
// an increment with no allocation, so every operation of a run can be
// timed (two million echo round trips in 30 s) instead of a sample.
//
// Not safe for concurrent use: each histogram belongs to the goroutine
// that runs the operation loop.
type histogram struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxExp  = 40 // values are clamped below 2^40 ns (~18 min)
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

// histIndex maps a value to its bucket. Values below histSub map to
// themselves (exact); above, the top histSubBits+1 bits select the
// bucket.
func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	if v >= 1<<histMaxExp {
		v = 1<<histMaxExp - 1
	}
	shift := bits.Len64(v) - histSubBits - 1
	return (shift+1)<<histSubBits | int(v>>shift&(histSub-1))
}

// histLower returns the smallest value that maps to bucket i; bucket i
// covers [histLower(i), histLower(i+1)).
func histLower(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	shift := i>>histSubBits - 1
	return (histSub | uint64(i&(histSub-1))) << shift
}

func (h *histogram) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

func (h *histogram) reset() { *h = histogram{} }

// merge adds o's samples to h.
func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds it, so the reported value moves smoothly
// with the data instead of snapping to bucket edges.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := float64(histLower(i)), float64(histLower(i+1))
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(histLower(histBuckets - 1))
}

// beyond returns how many samples lie above the q-quantile: the figure
// that says whether a percentile is supported by the sample.
func (h *histogram) beyond(q float64) uint64 {
	return uint64(float64(h.n) * (1 - q))
}
