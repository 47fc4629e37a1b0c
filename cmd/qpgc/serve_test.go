package main

import "testing"

func TestCheckTarget(t *testing.T) {
	cases := []struct {
		target  string
		sharded bool
		ok      bool
	}{
		{"gr", false, true},
		{"g", false, true},
		{"hop2", false, true},
		{"gr", true, true},
		{"g", true, true},
		{"hop2", true, false},
		{"foo", false, false},
		{"", false, false},
		{"GR", true, false},
	}
	for _, c := range cases {
		if err := checkTarget(c.target, c.sharded); (err == nil) != c.ok {
			t.Errorf("checkTarget(%q, sharded=%v) = %v, want ok=%v", c.target, c.sharded, err, c.ok)
		}
	}
}
