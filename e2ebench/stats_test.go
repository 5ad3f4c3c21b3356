package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.2, 1}, {0.5, 3}, {0.9, 5}, {1, 5}, {0.01, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Fatal("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Fatal("empty input should give NaN")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 0.99}, // rank 990: exactly 10 above
		{999, 0.9},   // rank 990 of 999: 9 above p99
		{100, 0.9},   // rank 90: 10 above
		{99, 0.5},    // p90 has 9 above; p75 is not a candidate here
		{20, 0.5},
		{0, 0.5},
	} {
		if got := tailPercentile(c.n, 0.99, 0.9); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := tailPercentile(40, 0.99, 0.9, 0.75); got != 0.75 {
		t.Errorf("tailPercentile(40) with p75 candidate = %v, want 0.75", got)
	}
	if got := beyond(100, 0.9); got != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", got)
	}
}

func TestRatioEmptyDenominator(t *testing.T) {
	if ratio(3, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Fatal("ratio")
	}
}
