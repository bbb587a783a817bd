package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles tail_us may report, highest first.
var tailCandidates = []float64{99, 95, 90}

// minBeyond is how many samples must lie beyond a percentile before it is
// trusted as a tail estimate.
const minBeyond = 10

// beyond is the number of the n samples that lie above the p-th
// percentile under the nearest-rank definition.
func beyond(n int, p float64) int {
	return n - rankOf(n, p)
}

// rankOf is the 1-based nearest rank of the p-th percentile of n samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks the highest candidate percentile that leaves at
// least minBeyond of n samples beyond it, or the lowest candidate when
// none does. Each workload fixes its tail percentile by applying this to
// the sample count it reaches at the reference seed.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return tailCandidates[len(tailCandidates)-1]
}

// percentile returns the nearest-rank p-th percentile of xs, sorting xs
// in place. It returns 0 for an empty slice.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[rankOf(len(xs), p)-1]
}

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (the mean of the middle two for an
// even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
