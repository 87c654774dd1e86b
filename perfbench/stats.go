package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile.
// A p99 over fewer than 1,000 samples would rest on a handful of points,
// so the reported rank is pulled down until ten samples remain above it.
const minTail = 10

// wallNow is the benchmark's single wall-clock read. Everything the
// benchmark times flows through it; nothing it returns reaches the
// program's deterministic outputs.
func wallNow() time.Time {
	//lint:allow no-wall-clock the benchmark measures real elapsed time
	return time.Now()
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for an empty sample. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailRank returns the index, in an ascending sample of n values, of the
// q-th quantile (0 < q < 1) capped so that at least minTail samples lie
// beyond it: the highest percentile up to q the sample supports. ok is
// false when n ≤ minTail, where no rank leaves enough samples beyond it.
func tailRank(n int, q float64) (idx int, ok bool) {
	if n <= minTail {
		return 0, false
	}
	idx = int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if most := n - 1 - minTail; idx > most {
		idx = most
	}
	return idx, true
}

// tailPercentile returns the value at tailRank(len(xs), q).
func tailPercentile(xs []float64, q float64) (float64, bool) {
	idx, ok := tailRank(len(xs), q)
	if !ok {
		return 0, false
	}
	return sortedCopy(xs)[idx], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// durationsMs converts durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// frac returns num/den, or 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
