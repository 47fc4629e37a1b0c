package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		scale          float64
		pairs, workers int
		ok             bool
	}{
		{1.0, 200, 0, true},
		{0.08, 1, 4, true},
		{0, 200, 0, false},
		{-1, 200, 0, false},
		{math.NaN(), 200, 0, false},
		{1.0, 0, 0, false},
		{1.0, -3, 0, false},
		{1.0, 200, -1, false},
	}
	for _, c := range cases {
		if err := checkFlags(c.scale, c.pairs, c.workers); (err == nil) != c.ok {
			t.Errorf("checkFlags(%v, %d, %d) = %v, want ok=%v", c.scale, c.pairs, c.workers, err, c.ok)
		}
	}
}
